"""Uniform client contract for the underlying multimodal model.

One entry point, :meth:`ModelGateway.complete`, fronts whichever backend is
configured: a live HTTPS endpoint or a ``tools.Replay`` of recorded
replies. It makes one backend call per request; retries belong to the
executor's call path, which every backend call of a run goes through. It
never parses model output, which belongs to the pipeline stage that issued
the request.

Every request decodes greedily, at ``TEMPERATURE`` 0 with at most
``MAX_OUTPUT_TOKENS`` (1024) tokens: replies are cached and replayed as the
model's answer, which only a deterministic decoding makes sound. Both values
still go into the request digest, the wire body and the request log.
"""

from __future__ import annotations

import json
import threading
import time
import weakref
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Protocol, TypeVar
from urllib.parse import urlsplit

from .errors import AuthFailure, BackendUnavailable, PayloadTooLarge
from .hashing import sha256_json
from .model import record, typed
from .prompts import RenderedPrompt

if TYPE_CHECKING:
    import http.client

T = TypeVar("T")


class PurposeTag(Enum):
    EXTRACT = "extract"
    QUERY_FORMULATE = "query-formulate"
    ATTRIBUTE_ANSWER = "attribute-answer"
    VERIFY = "verify"
    SELF_CHECK = "self-check"


TEMPERATURE = 0.0
MAX_OUTPUT_TOKENS = 1024


@dataclass(frozen=True)
class ModelRequest:
    """One prompt, decoded greedily, since its reply is cached and replayed."""

    prompt: RenderedPrompt
    purpose_tag: PurposeTag = PurposeTag.VERIFY


@dataclass(frozen=True)
class ModelResponse:
    text: str
    _KEYS = frozenset({"text"})

    def to_json(self) -> dict[str, Any]:
        return {"text": self.text}

    @classmethod
    def from_json(cls, data: Any) -> ModelResponse:
        return cls(typed(record(data, cls._KEYS).get("text"), str, "text"))


def request_digest(request: ModelRequest) -> str:
    """Content identity of a request: prompt bytes, image digests, decoding.

    The purpose tag is deliberately excluded: two stages sending identical
    prompts must map to the same cache entry.
    """
    return sha256_json({
        "system": request.prompt.system,
        "user": request.prompt.user,
        "attachments": [ref.digest for ref in request.prompt.attachments],
        "temperature": TEMPERATURE,
        "max_output_tokens": MAX_OUTPUT_TOKENS,
    })


class ModelBackend(Protocol):
    """One raw model invocation; retries live above this interface."""

    backend_id: str

    def invoke(self, request: ModelRequest) -> str: ...


class ModelGateway:
    """One backend and its request log, safe for concurrent calls.

    The log records each request sent to the backend, with its reply; a
    reply served from the run cache is never sent, so a warm run logs
    nothing. ``sleep`` is how the executor waits between retries of a call,
    so a test can skip the waits.
    """

    def __init__(
        self,
        backend: ModelBackend,
        request_log: str | Path | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.backend = backend
        self._request_log = Path(request_log) if request_log is not None else None
        self.sleep = sleep
        self._log_lock = threading.Lock()

    def complete(self, request: ModelRequest) -> ModelResponse:
        """One backend call; its text comes back verbatim apart from a trailing
        whitespace strip."""
        response = ModelResponse(self.backend.invoke(request).rstrip())
        self._log(request, response)
        return response

    def _log(self, request: ModelRequest, response: ModelResponse) -> None:
        if self._request_log is None:
            return
        record = {
            "digest": request_digest(request),
            "purpose": request.purpose_tag.value,
            "system": request.prompt.system,
            "user": request.prompt.user,
            "attachments": [ref.to_json() for ref in request.prompt.attachments],
            "temperature": TEMPERATURE,
            "max_output_tokens": MAX_OUTPUT_TOKENS,
            "backend_id": self.backend.backend_id,
            "text": response.text,
        }
        line = json.dumps(record, ensure_ascii=False)
        with self._log_lock:
            with open(self._request_log, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


# --- live backend ----------------------------------------------------------------


class _HttpJsonClient:
    """Base of the live clients: one JSON POST per call, on a kept-alive connection.

    ``http.client``, and with it ssl, loads on the first call. A call takes an
    idle connection or opens one, and gives it back once the reply is read
    whole, so no connection serves two calls at once. Only a request that
    finds a reused connection closed is sent again, once. A transport
    failure, or a body that is not JSON or that ``parse`` cannot read
    (``typed`` rejects a field that is null or not a string), raises
    BackendUnavailable; a status other than 200 raises its ``_status_errors``
    class, else BackendUnavailable (a 3xx among them, and a 429 rate limit,
    since it heals). Each connect and each read waits at most ``timeout`` s.
    An endpoint without an http or https scheme or without a host is a
    ValueError when the client is built.
    """

    timeout = 30.0
    _status_errors: Mapping[int, type[Exception]] = {401: AuthFailure, 403: AuthFailure}

    def __init__(self, endpoint: str, headers: dict[str, str]) -> None:
        self.endpoint = endpoint
        self._url = url = urlsplit(endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"endpoint {endpoint!r} is not an http or https URL with a host")
        self._target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._headers = {"Content-Type": "application/json", **headers}
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)  # a dropped client closes its sockets

    def _post(self, payload: dict, parse: Callable[[Any], T]) -> T:
        import http.client

        body = json.dumps(payload).encode()
        with self._idle_lock:
            idle = connection = self._idle.pop() if self._idle else None
        try:
            while True:
                connection = connection or self._connect()
                try:
                    connection.request("POST", self._target, body, self._headers)
                    response = connection.getresponse()
                    break
                except ConnectionError:
                    if connection is not idle:
                        raise
                    # The server closed it while idle, before any reply byte: send once more.
                    connection.close()
                    connection = None
            status, data = response.status, response.read()
        except (OSError, ValueError, http.client.HTTPException) as exc:
            if connection is not None:
                connection.close()
            raise BackendUnavailable(f"{self.endpoint} unreachable: {exc}") from exc
        if not response.will_close:  # else http.client has closed it
            with self._idle_lock:
                self._idle.append(connection)
        if status != 200:
            error = self._status_errors.get(status, BackendUnavailable)
            raise error(f"{self.endpoint} returned {status}")
        try:
            return parse(json.loads(data))
        except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
            raise BackendUnavailable(
                f"{self.endpoint} returned a malformed body: {exc!r}"
            ) from exc

    def _connect(self) -> http.client.HTTPConnection:
        """A new connection; HTTPS checks certificates against the system CA store."""
        import http.client

        kind = {"http": http.client.HTTPConnection,
                "https": http.client.HTTPSConnection}[self._url.scheme]
        return kind(self._url.netloc, timeout=self.timeout)


def _close_all(connections: list[http.client.HTTPConnection]) -> None:
    for connection in connections:
        connection.close()


class HttpModelBackend(_HttpJsonClient):
    """Live backend spoken over HTTPS as a single JSON POST per request.

    Wire shape: ``{"model", "system", "user", "images": [...], "temperature",
    "max_output_tokens"}`` out, ``{"text": ...}`` back. Image attachments are
    passed by path/URL plus digest; uploading bytes is the endpoint's concern.
    """

    timeout = 60.0
    _status_errors = {401: AuthFailure, 403: AuthFailure, 413: PayloadTooLarge}

    def __init__(self, endpoint: str, api_key: str, model: str = "") -> None:
        if not api_key:
            raise AuthFailure("model backend requires an API key")
        super().__init__(endpoint, {"Authorization": f"Bearer {api_key}"})
        self.model = model
        self.backend_id = model or endpoint

    def invoke(self, request: ModelRequest) -> str:
        return self._post({
            "model": self.model,
            "system": request.prompt.system,
            "user": request.prompt.user,
            "images": [ref.to_json() for ref in request.prompt.attachments],
            "temperature": TEMPERATURE,
            "max_output_tokens": MAX_OUTPUT_TOKENS,
        }, lambda body: typed(body["text"], str, "text"))
