"""The four aspect-oriented evidence tools and their shared contracts.

Each family (object detection, attribute answering, scene-text reading,
fact search) has a protocol and a live client. One :class:`Replay` plays
back a cache store under the executor's own keys, as the model or as any
tool; with no store it finds nothing, and so stands in for any family
switched off (ablations are a config change). The module-level operations
(:func:`detect_objects` etc.) enforce the family's postconditions (label
vocabulary, box validity, deterministic ordering) regardless of backend.

:func:`format_evidence_sections` turns a collected bundle into the four
text blocks the verification prompts bind; empty families render exactly
``none information``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Protocol, Sequence, TypeVar

from .cache import FACT_TOP_K, CacheKey, DiskCache
from .errors import AuthFailure, BackendError, InvalidImage
from .gateway import (
    Completer,
    ModelGateway,
    ModelRequest,
    ModelResponse,
    PurposeTag,
    _HttpJsonClient,
    request_digest,
)
from .model import (
    AttributeEvidence,
    EvidenceBundle,
    FactEvidence,
    ImageRef,
    NormBox,
    ObjectEvidence,
    SceneTextEvidence,
    each,
    number,
    typed,
    validate_norm_box,
)
from .prompts import SupplementalId, render

NONE_INFORMATION = "none information"

# One fact block is clipped here after formatting; a marker shows the cut.
FACT_BLOCK_CHAR_LIMIT = 2000
# Fixed for every run: the live detector drops detections scored below this.
DETECTOR_THRESHOLD = 0.35
DEFAULT_SEARCH_ENDPOINT = "https://google.serper.dev/search"
_Boxed = TypeVar("_Boxed", ObjectEvidence, SceneTextEvidence)


@dataclass(frozen=True)
class FactSnippet:
    """One search hit: title, snippet text, and where it came from."""

    title: str
    snippet: str
    source_url: str

    def __post_init__(self) -> None:
        if not self.snippet:
            raise ValueError("snippet must be non-empty")


class ObjectDetector(Protocol):
    backend_id: str

    def detect(self, image: ImageRef, labels: Sequence[str]) -> list[ObjectEvidence]: ...


class AttributeAnswerer(Protocol):
    backend_id: str

    def answer(self, image: ImageRef, question: str) -> AttributeEvidence: ...


class SceneTextReader(Protocol):
    backend_id: str

    def read(self, image: ImageRef) -> list[SceneTextEvidence]: ...


class FactSearcher(Protocol):
    backend_id: str

    def search(self, question: str, top_k: int) -> list[FactSnippet]: ...


@dataclass
class ToolBackendSet:
    """The four tool slots; every slot must be populated (a store-less Replay counts)."""

    object_detector: ObjectDetector
    attribute_answerer: AttributeAnswerer
    scene_text_reader: SceneTextReader
    fact_searcher: FactSearcher

    def backend_ids(self) -> dict[str, str]:
        return {slot.name: getattr(self, slot.name).backend_id for slot in fields(self)}


# --- family operations (backend-independent postconditions) -----------------


def detect_objects(
    detector: ObjectDetector, image: ImageRef, labels: Sequence[str]
) -> list[ObjectEvidence]:
    """Detect the requested vocabulary in the image.

    Results are restricted to the requested labels (case-insensitive),
    box-validated, deduplicated, and sorted by (label, x1, y1) so output
    order never depends on backend return order.
    """
    if not labels:
        raise ValueError("labels must be non-empty")
    if not image.digest:
        raise InvalidImage("image reference carries no digest")
    wanted = {label.lower() for label in labels}
    return _checked([item for item in detector.detect(image, list(labels))
                     if item.label.lower() in wanted],
                    "detector", lambda e: (e.label, e.box.x1, e.box.y1))


def answer_attribute(
    image: ImageRef, question: str, gateway: Completer
) -> AttributeEvidence:
    """Ask the underlying model one attribute question about the image."""
    if not question:
        raise ValueError("question must be non-empty")
    prompt = render(SupplementalId.ATTRIBUTE_ANSWER, {"question": question}, [image])
    response = gateway.complete(
        ModelRequest(prompt=prompt, purpose_tag=PurposeTag.ATTRIBUTE_ANSWER)
    )
    return AttributeEvidence(question=question, answer=response.text)


def read_scene_text(reader: SceneTextReader, image: ImageRef) -> list[SceneTextEvidence]:
    """Read scene text; items sorted top-to-bottom then left-to-right."""
    if not image.digest:
        raise InvalidImage("image reference carries no digest")
    return _checked(list(reader.read(image)), "scene-text reader",
                    lambda e: (e.box.y1, e.box.x1, e.text))


def _checked(items: list[_Boxed], backend: str, key: Callable[[_Boxed], Any]) -> list[_Boxed]:
    """``items`` with every box checked, deduplicated and sorted by ``key``."""
    for item in items:
        if not validate_norm_box(item.box):
            raise ValueError(f"{backend} returned an invalid box: {item.box}")
    return sorted(set(items), key=key)


def search_facts(searcher: FactSearcher, question: str) -> list[FactSnippet]:
    """Search one fact question; at most FACT_TOP_K hits, provider order kept."""
    if not question:
        raise ValueError("question must be non-empty")
    return list(searcher.search(question, FACT_TOP_K))[:FACT_TOP_K]


# --- evidence formatting -----------------------------------------------------


def format_float(value: float) -> str:
    """Coordinate rendering: up to 3 decimals, trailing zeros trimmed."""
    return f"{round(value, 3):g}"


def format_box(box: NormBox) -> str:
    coords = ", ".join(format_float(v) for v in (box.x1, box.y1, box.x2, box.y2))
    return f"[{coords}]"


def fact_snippet_line(snippet: FactSnippet) -> str:
    line = f"{snippet.title}: {snippet.snippet}" if snippet.title else snippet.snippet
    if snippet.source_url:
        line += f" ({snippet.source_url})"
    return line


def format_evidence_sections(evidence: EvidenceBundle) -> dict[str, str]:
    """Render the four expert-model blocks bound into verification prompts.

    Keys match the verification templates' slot names. Any family with no
    evidence renders exactly ``none information``.
    """
    facts = []
    for fact in evidence.facts:
        lines = [f"question: {fact.question}"]
        if fact.snippets:
            lines.extend(f"{i}. {text}" for i, text in enumerate(fact.snippets, start=1))
        else:
            lines.append("(no results)")
        block = "\n".join(lines)
        if len(block) > FACT_BLOCK_CHAR_LIMIT:
            block = block[:FACT_BLOCK_CHAR_LIMIT] + " ..."
        facts.append(block)
    # Every line is non-empty, so a block is empty only for a family with no evidence.
    return {
        "object_evidence": "\n".join(
            f"{e.label} {format_box(e.box)}" for e in evidence.objects) or NONE_INFORMATION,
        "attribute_evidence": "\n".join(
            f"question: {e.question}\nanswer: {e.answer}" for e in evidence.attributes
        ) or NONE_INFORMATION,
        "scene_text_evidence": "\n".join(
            f"{e.text} {format_box(e.box)}" for e in evidence.scene_texts) or NONE_INFORMATION,
        "fact_evidence": "\n".join(facts) or NONE_INFORMATION,
    }


# --- replay ------------------------------------------------------------------------

# The backend id each replay answers under, keyed like a run manifest's backend_ids.
REPLAY_IDS = {
    "model": "mock-model",
    "object_detector": "mock-object-detector",
    "attribute_answerer": "mock-attribute",
    "scene_text_reader": "mock-scene-text",
    "fact_searcher": "mock-fact-search",
}


class Replay:
    """Replays a read-only cache store, as the model or as any tool.

    Entries are looked up under the executor's own cache keys and this
    replay's backend id, so a store recorded by
    ``run_batch(..., cache=DiskCache(root))`` replays as is. A tool call
    with no entry, or with no store at all, finds nothing: a tool slot
    switched off holds ``Replay(None, "null")``. A model request with no
    entry raises BackendError, which is never retried: a model reply cannot
    be defaulted, and a missing entry never heals. A tampered entry raises
    StoreCorrupt.
    """

    def __init__(self, store: DiskCache | None, backend_id: str) -> None:
        self._store = store
        self.backend_id = backend_id

    def _lookup(self, key: Callable[..., CacheKey], *query: Any) -> Any:
        """The value stored under ``key(*query, backend_id)``, else None; no store builds no key."""
        if self._store is None:
            return None
        hit, value = self._store.get(key(*query, self.backend_id))
        return value if hit else None

    def invoke(self, request: ModelRequest) -> str:
        digest = request_digest(request)
        stored = self._lookup(CacheKey.model, digest)
        if stored is None:
            raise BackendError(
                f"no mock entry for request digest {digest} "
                f"(purpose {request.purpose_tag.value})"
            )
        return ModelResponse.from_json(stored).text

    def detect(self, image: ImageRef, labels: Sequence[str]) -> list[ObjectEvidence]:
        items = self._lookup(CacheKey.object_detect, image.digest, labels)
        return list(each(items or [], ObjectEvidence.from_json))

    def read(self, image: ImageRef) -> list[SceneTextEvidence]:
        items = self._lookup(CacheKey.scene_text, image.digest)
        return list(each(items or [], SceneTextEvidence.from_json))

    def search(self, question: str, top_k: int) -> list[FactSnippet]:
        """The lines recorded at ``FACT_TOP_K``; :func:`fact_snippet_line` maps each back."""
        fact = self._lookup(CacheKey.fact_search, question)
        return [] if fact is None else [
            FactSnippet("", line, "") for line in FactEvidence.from_json(fact).snippets]

    def answer(self, image: ImageRef, question: str) -> AttributeEvidence:
        stored = self._lookup(CacheKey.attribute, image.digest, question)
        answer = (AttributeEvidence.from_json(stored).answer if stored is not None
                  else NONE_INFORMATION)
        return AttributeEvidence(question=question, answer=answer)


def mock_backend_set(store: DiskCache) -> ToolBackendSet:
    """All four tools replaying one cache store."""
    return ToolBackendSet(**{slot.name: Replay(store, REPLAY_IDS[slot.name])
                             for slot in fields(ToolBackendSet)})


# --- live clients ----------------------------------------------------------------


class GatewayAttributeAnswerer:
    """Live attribute answering: the underlying model reflecting on the image."""

    def __init__(self, gateway: ModelGateway) -> None:
        self._gateway = gateway
        self.backend_id = f"gateway:{gateway.backend.backend_id}"

    def answer(self, image: ImageRef, question: str) -> AttributeEvidence:
        return answer_attribute(image, question, self._gateway)


def _normalize_box(raw: Any, body: dict) -> NormBox:
    """``raw`` as fractions of the image size, when ``body`` reports it in pixels."""
    x1, y1, x2, y2 = each(raw, number, "box")
    width, height = (number(body.get(key, 0), key) for key in ("image_width", "image_height"))
    if width and height:
        x1, x2 = x1 / width, x2 / width
        y1, y2 = y1 / height, y2 / height
    return NormBox(x1=x1, y1=y1, x2=x2, y2=y2)


class _HttpToolClient(_HttpJsonClient):
    """A live image tool client; its backend id is ``<_id_prefix>:<endpoint>``."""

    _status_errors = {401: AuthFailure, 403: AuthFailure, 422: InvalidImage}
    _id_prefix: str

    def __init__(self, endpoint: str, api_key: str | None = None) -> None:
        super().__init__(endpoint, {"Authorization": f"Bearer {api_key}"} if api_key else {})
        self.backend_id = f"{self._id_prefix}:{endpoint}"


class HttpObjectDetector(_HttpToolClient):
    """Open-set detector service client.

    Sends the requested label vocabulary with the image reference; drops
    detections scored below :data:`DETECTOR_THRESHOLD`; normalizes pixel
    boxes to fractions when the service reports image dimensions.
    """

    _id_prefix = "detector"

    def detect(self, image: ImageRef, labels: Sequence[str]) -> list[ObjectEvidence]:
        return self._post({
            "image": image.to_json(),
            "labels": list(labels),
            "threshold": DETECTOR_THRESHOLD,
        }, self._detections)

    def _detections(self, body: dict) -> list[ObjectEvidence]:
        results = []
        for det in body.get("detections", []):
            if number(det.get("score", 1.0), "score") < DETECTOR_THRESHOLD:
                continue
            results.append(ObjectEvidence(
                label=typed(det["label"], str, "label"),
                box=_normalize_box(det["box"], body),
            ))
        return results


class HttpSceneTextReader(_HttpToolClient):
    """OCR service client; returns recognized lines with normalized boxes."""

    _id_prefix = "scene-text"

    def read(self, image: ImageRef) -> list[SceneTextEvidence]:
        return self._post({"image": image.to_json()}, self._lines)

    def _lines(self, body: dict) -> list[SceneTextEvidence]:
        return [
            SceneTextEvidence(text=typed(line["text"], str, "text"),
                              box=_normalize_box(line["box"], body))
            for line in body.get("lines", [])
        ]


class HttpFactSearcher(_HttpJsonClient):
    """Web-search client speaking the serper.dev shape; it sends no image, so a 422
    is BackendUnavailable, not InvalidImage."""

    def __init__(self, api_key: str, endpoint: str = DEFAULT_SEARCH_ENDPOINT) -> None:
        if not api_key:
            raise AuthFailure("fact search requires an API key")
        super().__init__(endpoint, {"X-API-KEY": api_key})
        self.backend_id = f"search:{endpoint}"

    def search(self, question: str, top_k: int) -> list[FactSnippet]:
        return self._post({"q": question}, lambda body: self._snippets(body, top_k))

    def _snippets(self, body: dict, top_k: int) -> list[FactSnippet]:
        snippets = []
        for hit in body.get("organic", [])[:top_k]:
            text = typed(hit.get("snippet", ""), str, "snippet").strip()
            if not text:
                continue
            snippets.append(FactSnippet(
                title=typed(hit.get("title", ""), str, "title"),
                snippet=text,
                source_url=typed(hit.get("link", ""), str, "link"),
            ))
        return snippets

