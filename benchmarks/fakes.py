"""Fake model and tool backends that answer from a generated corpus.

Each fake implements the program's backend protocol, answers in constant
time per call from tables built before the run, sleeps its family's fixed
latency, and counts its calls and its own thread CPU time. The model fake
finds the pair from the claim list (or, for claim extraction, the response
text) that the prompt carries, so a prompt whose claims differ from the
generator's by one character gets no reply and its pair fails.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Sequence

from halodet.gateway import ModelRequest
from halodet.model import (
    AttributeEvidence,
    ImageRef,
    NormBox,
    ObjectEvidence,
    SceneTextEvidence,
)
from halodet.prompts import SupplementalId, TemplateId, template_text
from halodet.tools import FactSnippet, ToolBackendSet

import corpus

_CLAIMS_MARK = "claim list:\n"
_OUTPUT_TAIL = "\noutput:"
_VERIFY_MARK = "Here is the claim list:\n"
_VERIFY_TAIL = "\n\n<Output>:"
_TEXT_MARK = "\ntext:\n"

_PROMPT_KINDS = {
    TemplateId.OBJECT_QUERY: "object",
    TemplateId.SCENE_TEXT_QUERY: "scene",
    TemplateId.FACT_QUERY: "fact",
    TemplateId.ATTRIBUTE_QUERY: "attribute",
    TemplateId.VERIFY_IMAGE_TO_TEXT: "verify",
    TemplateId.VERIFY_TEXT_TO_IMAGE: "verify",
    SupplementalId.EXTRACT_CLAIMS: "extract",
}


class UnknownRequest(LookupError):
    """A request the corpus has no answer for; the pair that sent it fails."""


class _Fake:
    family = ""

    def __init__(self, latency_s: float, tracer: Any = None) -> None:
        self.latency_s = latency_s
        self.tracer = tracer
        self.calls = 0
        self.cpu_s = 0.0
        self.requests: list[Any] = []  # request identities, kept when tracing
        self._lock = threading.Lock()
        self._span = f"backend.{self.family}"

    def _call(self, fn: Any, *args: Any) -> Any:
        if self.tracer is None:
            return fn(*args)
        with self.tracer.span(self._span):
            return fn(*args)

    def _settle(self, cpu_started: float, identity: Any) -> None:
        """Book one call, then wait out the injected latency."""
        cpu = time.thread_time() - cpu_started
        with self._lock:
            self.calls += 1
            self.cpu_s += cpu
            if self.tracer is not None:
                self.requests.append(identity)
        if self.latency_s:
            time.sleep(self.latency_s)


class FakeModel(_Fake):
    family = "model"
    backend_id = "bench-model"

    def __init__(self, cases: Sequence[corpus.PairCase], latency_s: float,
                 tracer: Any = None) -> None:
        super().__init__(latency_s, tracer)
        self._by_claims = {case.claim_list: case for case in cases}
        self._by_text = {case.text: case for case in cases if not case.annotated}
        self._kinds = {
            template_text(prompt_id)[1].split("\n", 1)[0]: kind
            for prompt_id, kind in _PROMPT_KINDS.items()
        }
        self.verify_calls: dict[str, int] = {}

    def invoke(self, request: ModelRequest) -> str:
        return self._call(self._invoke, request)

    def _invoke(self, request: ModelRequest) -> str:
        started = time.thread_time()
        user = request.prompt.user
        kind = self._kinds.get(user[:user.find("\n")])
        if kind == "extract":
            mark, tail, table = _TEXT_MARK, _OUTPUT_TAIL, self._by_text
        elif kind == "verify":
            mark, tail, table = _VERIFY_MARK, _VERIFY_TAIL, self._by_claims
        elif kind is not None:
            mark, tail, table = _CLAIMS_MARK, _OUTPUT_TAIL, self._by_claims
        else:
            raise UnknownRequest("fake model: unknown prompt template")
        at = user.rfind(mark)
        if at < 0 or not user.endswith(tail):
            raise UnknownRequest(f"fake model: malformed {kind} prompt")
        case = table.get(user[at + len(mark):len(user) - len(tail)])
        if case is None:
            raise UnknownRequest(f"fake model: no {kind} reply for this prompt")
        reply = case.replies[kind]
        if kind == "verify":
            with self._lock:
                count = self.verify_calls.get(case.pair_id, 0) + 1
                self.verify_calls[case.pair_id] = count
            if case.retry and count == 1:
                reply = corpus.UNPARSEABLE_REPLY
        self._settle(started, (case.pair_id, kind))
        return reply

    @property
    def verify_repeats(self) -> int:
        """Verification calls beyond the first for the same request."""
        return sum(count - 1 for count in self.verify_calls.values())


def _box(box: tuple[float, float, float, float]) -> NormBox:
    return NormBox(x1=box[0], y1=box[1], x2=box[2], y2=box[3])


class FakeObjectDetector(_Fake):
    family = "object"
    backend_id = "bench-object-detector"

    def __init__(self, images: Sequence[corpus.Image], latency_s: float,
                 tracer: Any = None) -> None:
        super().__init__(latency_s, tracer)
        self._table = {
            image.digest: [ObjectEvidence(label=label, box=_box(box))
                           for label, box in image.detections]
            for image in images
        }

    def detect(self, image: ImageRef, labels: Sequence[str]) -> list[ObjectEvidence]:
        return self._call(self._detect, image, labels)

    def _detect(self, image: ImageRef, labels: Sequence[str]) -> list[ObjectEvidence]:
        started = time.thread_time()
        items = list(self._table[image.digest])
        self._settle(started, (image.digest, tuple(labels)))
        return items


class FakeSceneTextReader(_Fake):
    family = "scene"
    backend_id = "bench-scene-text"

    def __init__(self, images: Sequence[corpus.Image], latency_s: float,
                 tracer: Any = None) -> None:
        super().__init__(latency_s, tracer)
        self._table = {
            image.digest: [SceneTextEvidence(text=text, box=_box(box))
                           for text, box in image.lines]
            for image in images
        }

    def read(self, image: ImageRef) -> list[SceneTextEvidence]:
        return self._call(self._read, image)

    def _read(self, image: ImageRef) -> list[SceneTextEvidence]:
        started = time.thread_time()
        items = list(self._table[image.digest])
        self._settle(started, image.digest)
        return items


class FakeAttributeAnswerer(_Fake):
    family = "attribute"
    backend_id = "bench-attribute"

    def __init__(self, cases: Sequence[corpus.PairCase], latency_s: float,
                 tracer: Any = None) -> None:
        super().__init__(latency_s, tracer)
        self._table = {
            (case.image.digest, question.strip()): corpus.attribute_answer(case.image, question)
            for case in cases for claim in case.claims for question in claim.attribute
        }

    def answer(self, image: ImageRef, question: str) -> AttributeEvidence:
        return self._call(self._answer, image, question)

    def _answer(self, image: ImageRef, question: str) -> AttributeEvidence:
        started = time.thread_time()
        identity = (image.digest, question.strip())
        evidence = AttributeEvidence(question=question, answer=self._table[identity])
        self._settle(started, identity)
        return evidence


class FakeFactSearcher(_Fake):
    family = "fact"
    backend_id = "bench-fact-search"

    def __init__(self, cases: Sequence[corpus.PairCase], latency_s: float,
                 tracer: Any = None) -> None:
        super().__init__(latency_s, tracer)
        self._table = {
            question.strip(): [FactSnippet(title=t, snippet=s, source_url=u)
                               for t, s, u in corpus.fact_snippets(question)]
            for case in cases for claim in case.claims for question in claim.facts
        }

    def search(self, question: str, top_k: int) -> list[FactSnippet]:
        return self._call(self._search, question)

    def _search(self, question: str) -> list[FactSnippet]:
        # Returns more hits than top_k: the cut is the program's job.
        started = time.thread_time()
        hits = list(self._table[question.strip()])
        self._settle(started, question.strip())
        return hits


class Backends:
    """One fake of each family over the same cases."""

    def __init__(self, cases: Sequence[corpus.PairCase], latency: bool,
                 tracer: Any = None) -> None:
        lat = corpus.LATENCY_S if latency else dict.fromkeys(corpus.LATENCY_S, 0.0)
        images = list({case.image.digest: case.image for case in cases}.values())
        self.model = FakeModel(cases, lat["model"], tracer)
        self.object = FakeObjectDetector(images, lat["object"], tracer)
        self.scene = FakeSceneTextReader(images, lat["scene"], tracer)
        self.attribute = FakeAttributeAnswerer(cases, lat["attribute"], tracer)
        self.fact = FakeFactSearcher(cases, lat["fact"], tracer)
        self.tools = ToolBackendSet(
            object_detector=self.object,
            attribute_answerer=self.attribute,
            scene_text_reader=self.scene,
            fact_searcher=self.fact,
        )

    @property
    def all(self) -> tuple[_Fake, ...]:
        return (self.model, self.object, self.scene, self.attribute, self.fact)

    @property
    def tool_fakes(self) -> tuple[_Fake, ...]:
        return (self.object, self.scene, self.attribute, self.fact)

    def backend_ids(self) -> dict[str, str]:
        return {"model": self.model.backend_id, **self.tools.backend_ids()}

    def cpu_s(self) -> float:
        return sum(fake.cpu_s for fake in self.all)
