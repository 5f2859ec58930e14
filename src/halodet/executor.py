"""End-to-end orchestration of detection runs.

One pair flows through claim handling, query formulation, tool calls, and a
single verification call. Each call starts as soon as the reply it needs
lands: object detection and the attribute-query call on the object reply,
the scene-text read on the scene-text reply, fact searches on the fact reply,
attribute answers on the attribute reply. Verification starts only after
every tool call has settled. Evidence merge order is fixed (object, then
attribute, then scene text, then fact, ordered inside each family by claim
index then query index), so results are invariant under scheduling.

A run owns two thread pools: one running pairs, ``width`` wide, and one
shared call pool. A thread that would only wait or exit runs the next call
itself, so each call runs in a fixed thread:

- the pair thread runs the object and attribute formulation calls, the last
  distinct attribute answer, and verification;
- the scene-text chain, on the call pool, runs its formulation call and then
  the scene-text read;
- the fact chain, on the call pool, runs its formulation call and then the
  last distinct fact search;
- every other tool call (object detection, the other attribute answers and
  fact searches) is its own call-pool task.

The call pool is ``width`` x 10 wide: per pair it receives the 2 chains and
the pooled tool calls, sized for at most 8 of those per pair; any beyond
that queue. Pair threads submit calls and wait for them. Call-pool tasks
may submit calls but never wait on one, so the pools cannot deadlock.

Each pair owns one call object, ``_PairCalls``, through which every model
and tool call of the pair passes. Whatever the family, a call reads the
cache, calls its backend on a miss, writes the reply back and leaves one
trace record. Identical mock runs are
byte-identical whether cache-cold, cache-warm, or at any parallelism width,
and the trace records exactly one entry per backend invocation.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .cache import CacheKey, DiskCache
from .errors import ConfigInvalid, StoreCorrupt
from .gateway import ModelGateway, ModelRequest, ModelResponse, request_digest
from .hashing import sha256_json, sha256_text
from .model import (
    EvidenceBundle,
    FactEvidence,
    ImageTextPair,
    Verdict,
    evidence_from_json,
    validate_pair,
)
from .prompts import TemplateId, template_digests
from .stages import (
    DetectionMethod,
    SelfCheckDemo,
    ToolPlan,
    extract_claims,
    formulate_queries,
    is_degraded,
    label_union,
    self_check,
    verify,
)
from .tools import (
    DEFAULT_FACT_TOP_K,
    ToolBackendSet,
    detect_objects,
    fact_snippet_line,
    read_scene_text,
    search_facts,
)

logger = logging.getLogger(__name__)

# Call-pool workers per pair: 2 formulation chains plus 8 tool calls in flight.
_CALLS_PER_PAIR = 10


@dataclass(frozen=True)
class TraceRecord:
    """One executed stage: what went in, what came out, and whether it was cached."""

    stage: str
    input_digest: str
    output_digest: str
    duration_ms: int
    cache_hit: bool

    def to_json(self) -> dict[str, Any]:
        return {
            "stage": self.stage,
            "input_digest": self.input_digest,
            "output_digest": self.output_digest,
            "duration_ms": self.duration_ms,
            "cache_hit": self.cache_hit,
        }


@dataclass(frozen=True)
class DetectionResult:
    pair_id: str
    method: DetectionMethod
    verdicts: tuple[Verdict, ...]
    plan: ToolPlan | None
    evidence: EvidenceBundle
    degraded: bool
    trace: tuple[TraceRecord, ...]

    def payload_json(self) -> dict[str, Any]:
        """The deterministic part, written to the per-pair result file.

        Timing and cache hits live in the run manifest instead, so this
        payload is byte-stable across schedules and cache states.
        """
        return {
            "pair_id": self.pair_id,
            "method": self.method.value,
            "plan": self.plan.to_json() if self.plan is not None else None,
            "evidence": self.evidence.to_json(),
            "verdicts": [v.to_json() for v in self.verdicts],
            "degraded": self.degraded,
        }


@dataclass(frozen=True)
class PairFailure:
    pair_id: str
    error_type: str
    message: str
    trace: tuple[TraceRecord, ...]

    def to_json(self) -> dict[str, Any]:
        return {
            "pair_id": self.pair_id,
            "error_type": self.error_type,
            "message": self.message,
            "trace": [record.to_json() for record in self.trace],
        }


@dataclass
class BatchOutcome:
    results: list[DetectionResult]
    failures: list[PairFailure]

    @property
    def ok(self) -> bool:
        return not self.failures


class _PairCalls:
    """Every backend call of one pair, through one cache-and-trace path.

    ``complete`` is the gateway face the stages call. ``start`` is the
    formulation hook: it starts each tool call as soon as the reply it needs
    lands, and may run for several replies at once, each filling its own
    evidence slot. The hook runs the scene-text read and the last distinct
    question of each fan-out in its own thread, since that thread would
    otherwise only wait or exit; it submits the others. ``settle`` waits for
    every started tool call, and ``evidence`` merges them positionally,
    never in completion order.

    Each call returns the JSON form the cache stores: ``{"text": ...}`` for
    a model reply, the ``to_json()`` evidence for a tool. A pair's model
    requests are all distinct, so a repeated one is the retry of a reply its
    stage could not parse: it skips the cache read, and its reply replaces
    the cached one. A repeated attribute or fact question shares one future
    within its fan-out; other tool keys cannot repeat, as each reply starts
    at most one call of its family.
    """

    def __init__(self, pair: ImageTextPair, backends: ToolBackendSet | None,
                 gateway: ModelGateway, cache: DiskCache | None, fact_top_k: int,
                 pool: Executor) -> None:
        self._image = pair.image
        self._backends = backends
        self._gateway = gateway
        self._cache = cache
        self._fact_top_k = fact_top_k
        self._pool = pool
        self._lock = threading.Lock()  # guards _records and _seen
        self._records: list[TraceRecord] = []
        self._seen: set[str] = set()
        # Each slot is filled by the hook of one formulation reply, and read
        # only after every formulation chain has finished.
        self._objects: Future | None = None
        self._scene_texts: Future | None = None
        self._attributes: list[Future] = []
        self._facts: list[Future] = []

    def _call(self, stage: str, key: CacheKey, compute: Callable[[], Any],
              read: bool = True) -> Any:
        """Serve ``key`` from the cache or ``compute``; record one trace entry.

        A corrupt entry is a miss, which the put then overwrites. With
        ``read`` false the cache read is skipped; the reply is written anyway.
        """
        started = time.monotonic()
        hit, value = False, None
        if self._cache is not None and read:
            try:
                hit, value = self._cache.get(key)
            except StoreCorrupt as exc:
                logger.warning("recomputing: %s", exc)
        if not hit:
            value = compute()
            if self._cache is not None:
                self._cache.put(key, value)
        model = key.tool_kind == "model"
        record = TraceRecord(
            stage=stage,
            input_digest=key.canonical_query if model else key.digest(),
            output_digest=sha256_text(value["text"]) if model else sha256_json(value),
            duration_ms=max(0, round((time.monotonic() - started) * 1000)),
            cache_hit=hit,
        )
        with self._lock:
            self._records.append(record)
        return value

    def trace(self) -> tuple[TraceRecord, ...]:
        with self._lock:
            records = list(self._records)
        # Stable report order regardless of completion interleaving.
        return tuple(sorted(records, key=lambda r: (r.stage, r.input_digest)))

    def complete(self, request: ModelRequest) -> ModelResponse:
        digest = request_digest(request)
        with self._lock:
            retry = digest in self._seen
            self._seen.add(digest)
        backend_id = self._gateway.backend.backend_id
        value = self._call(
            f"model:{request.purpose_tag.value}", CacheKey.model(digest, backend_id),
            lambda: {"text": self._gateway.complete(request).text},
            read=not retry,
        )
        # The stages read only the text; timing lives in the trace record.
        return ModelResponse(text=value["text"], backend_id=backend_id,
                             latency_ms=0, attempt_count=1)

    def _start(self, stage: str, key: CacheKey, compute: Callable[[], Any],
               here: bool) -> Future:
        """Submit a tool call, or with ``here`` run it in this thread.

        Either way its result or error lands in the returned future, so an
        error surfaces from ``evidence()`` in merge order.
        """
        if not here:
            # A closure, not the pair: the call pool runs calls, not pairs.
            return self._pool.submit(lambda: self._call(stage, key, compute))
        future: Future = Future()
        try:
            future.set_result(self._call(stage, key, compute))
        except Exception as exc:  # noqa: BLE001 - re-raised by evidence()
            future.set_exception(exc)
        return future

    def start(self, template: TemplateId, queries: Mapping[int, tuple[str, ...]]) -> None:
        image, tools = self._image, self._backends
        questions = [q for per_claim in queries.values() for q in per_claim]
        if template is TemplateId.OBJECT_QUERY:
            # Pooled: this thread goes on to the attribute formulation call.
            labels = label_union(queries.values())
            if labels:
                detector = tools.object_detector
                self._objects = self._start(
                    "tool:object-detect",
                    CacheKey.object_detect(image.digest, labels, detector.backend_id),
                    lambda: [e.to_json() for e in detect_objects(detector, image, labels)],
                    here=False,
                )
        elif template is TemplateId.SCENE_TEXT_QUERY:
            if questions:
                reader = tools.scene_text_reader
                self._scene_texts = self._start(
                    "tool:scene-text", CacheKey.scene_text(image.digest, reader.backend_id),
                    lambda: [e.to_json() for e in read_scene_text(reader, image)],
                    here=True,
                )
        elif template is TemplateId.FACT_QUERY:
            self._facts = _fan_out(questions, self._search)
        elif template is TemplateId.ATTRIBUTE_QUERY:
            self._attributes = _fan_out(questions, self._answer)

    def _answer(self, question: str, here: bool) -> Future:
        image, answerer = self._image, self._backends.attribute_answerer
        return self._start(
            "tool:attribute", CacheKey.attribute(image.digest, question, answerer.backend_id),
            lambda: answerer.answer(image, question).to_json(), here,
        )

    def _search(self, question: str, here: bool) -> Future:
        searcher, top_k = self._backends.fact_searcher, self._fact_top_k
        return self._start(
            "tool:fact-search", CacheKey.fact_search(question, top_k, searcher.backend_id),
            lambda: FactEvidence(question=question, snippets=tuple(
                fact_snippet_line(s) for s in search_facts(searcher, question, top_k)
            )).to_json(),
            here,
        )

    def settle(self) -> None:
        """Wait until every started tool call has returned or raised."""
        singles = [f for f in (self._objects, self._scene_texts) if f is not None]
        wait([*singles, *self._attributes, *self._facts])

    def evidence(self) -> EvidenceBundle:
        """Merge results once settled; the first error in merge order is raised."""
        objects = self._objects.result() if self._objects is not None else []
        attributes = [f.result() for f in self._attributes]
        scene_texts = self._scene_texts.result() if self._scene_texts is not None else []
        facts = [f.result() for f in self._facts]
        return EvidenceBundle(
            objects=tuple(map(evidence_from_json, objects)),
            attributes=tuple(map(evidence_from_json, attributes)),
            scene_texts=tuple(map(evidence_from_json, scene_texts)),
            facts=tuple(map(evidence_from_json, facts)),
        )


def _fan_out(questions: Sequence[str],
             start: Callable[[str, bool], Future]) -> list[Future]:
    """One call per distinct question, one future per question in order.

    The last distinct question runs in this thread, after the others are
    submitted.
    """
    distinct = list(dict.fromkeys(questions))
    last = len(distinct) - 1
    futures = {question: start(question, i == last) for i, question in enumerate(distinct)}
    return [futures[question] for question in questions]


# --- single-pair and batch drivers --------------------------------------------------


def _call_pool(width: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=width * _CALLS_PER_PAIR,
                              thread_name_prefix="calls")


def run_detection(
    pair: ImageTextPair,
    method: DetectionMethod,
    backends: ToolBackendSet | None,
    gateway: ModelGateway,
    cache: DiskCache | None = None,
    fact_top_k: int = DEFAULT_FACT_TOP_K,
    demonstrations: Sequence[SelfCheckDemo] = (),
) -> DetectionResult:
    """Run one pair through the selected detection method.

    With pre-annotated claims (benchmark mode) extraction is skipped; an
    unannotated pair goes through the extraction stage first. The self-check
    methods never touch tool backends and carry empty evidence.
    """
    with _call_pool(1) as calls:
        return _run_pair(pair, method, backends, gateway, cache, fact_top_k,
                         demonstrations, calls)


def _run_pair(
    pair: ImageTextPair,
    method: DetectionMethod,
    backends: ToolBackendSet | None,
    gateway: ModelGateway,
    cache: DiskCache | None,
    fact_top_k: int,
    demonstrations: Sequence[SelfCheckDemo],
    pool: Executor,
) -> DetectionResult:
    """One pair, its formulation and tool calls run on the call ``pool``."""
    report = validate_pair(pair)
    if not report.ok:
        raise ValueError(f"pair {pair.id!r} invalid: " + "; ".join(report.violations))

    calls = _PairCalls(pair, backends, gateway, cache, fact_top_k, pool)
    try:
        if not pair.claims:
            claims = extract_claims(pair.text, pair.task, calls)
            pair = replace(pair, claims=tuple(claims))

        if method is DetectionMethod.UNIHD:
            if backends is None:
                raise ConfigInvalid("unihd requires tool backends")
            try:
                plan = formulate_queries(pair, calls, pool, calls.start)
            finally:
                calls.settle()
            evidence = calls.evidence()
            verdicts = verify(pair, evidence, calls)
        else:
            plan = None
            evidence = EvidenceBundle()
            shots = 0 if method is DetectionMethod.SELF_CHECK_0SHOT else 2
            verdicts = self_check(pair, shots, calls, demonstrations)
    except Exception as exc:
        # So batch failure records can show which stages did complete.
        exc.completed_trace = calls.trace()  # type: ignore[attr-defined]
        raise

    if len(verdicts) != len(pair.claims):
        raise AssertionError("verdict count diverged from claim count")

    return DetectionResult(
        pair_id=pair.id,
        method=method,
        verdicts=tuple(verdicts),
        plan=plan,
        evidence=evidence,
        degraded=is_degraded(verdicts),
        trace=calls.trace(),
    )


def run_batch(
    pairs: Sequence[ImageTextPair],
    method: DetectionMethod,
    backends: ToolBackendSet | None,
    gateway: ModelGateway,
    cache: DiskCache | None = None,
    width: int = 4,
    fact_top_k: int = DEFAULT_FACT_TOP_K,
    demonstrations: Sequence[SelfCheckDemo] = (),
) -> BatchOutcome:
    """Drive a batch with bounded parallelism and per-pair failure isolation.

    Results come back in input order regardless of completion order; a
    failing pair becomes a failure record and never halts its neighbors.
    """
    if width < 1:
        raise ConfigInvalid(f"width must be >= 1, got {width}")
    ids = [pair.id for pair in pairs]
    if len(set(ids)) != len(ids):
        raise ConfigInvalid("pair ids must be unique within a batch")

    slots: list[DetectionResult | PairFailure | None] = [None] * len(pairs)

    with _call_pool(width) as calls, \
            ThreadPoolExecutor(max_workers=width, thread_name_prefix="pairs") as pool:

        def run_one(position: int, pair: ImageTextPair) -> None:
            try:
                slots[position] = _run_pair(
                    pair, method, backends, gateway, cache, fact_top_k,
                    demonstrations, calls,
                )
            except Exception as exc:  # noqa: BLE001 - isolation boundary
                logger.warning("pair %s failed: %s", pair.id, exc)
                slots[position] = PairFailure(
                    pair_id=pair.id,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    trace=getattr(exc, "completed_trace", ()),
                )

        futures = [pool.submit(run_one, i, pair) for i, pair in enumerate(pairs)]
        for future in futures:
            future.result()

    results = [slot for slot in slots if isinstance(slot, DetectionResult)]
    failures = [slot for slot in slots if isinstance(slot, PairFailure)]
    if cache is not None:
        cache.flush_stats()
    return BatchOutcome(results=results, failures=failures)


# --- run directory ---------------------------------------------------------------


def write_run_dir(
    out_dir: str | Path,
    run_id: str,
    outcome: BatchOutcome,
    method: DetectionMethod,
    backend_ids: dict[str, str],
    config_echo: dict[str, Any] | None = None,
    created_at: str | None = None,
) -> Path:
    """Write ``results/<run-id>/{manifest.json, <pair-id>.json, errors.json}``.

    Per-pair files hold only the deterministic payload; timings, cache hits,
    and the wall clock go into the manifest. The run directory must not
    already exist; concurrent invocations need distinct run ids.
    """
    run_dir = Path(out_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=False)

    for result in outcome.results:
        path = run_dir / f"{result.pair_id}.json"
        path.write_text(
            json.dumps(result.payload_json(), ensure_ascii=False, indent=2,
                       sort_keys=True) + "\n",
            "utf-8",
        )

    (run_dir / "errors.json").write_text(
        json.dumps([f.to_json() for f in outcome.failures], ensure_ascii=False,
                   indent=2, sort_keys=True) + "\n",
        "utf-8",
    )

    manifest = {
        "run_id": run_id,
        "created_at": created_at if created_at is not None else _utc_now(),
        "method": method.value,
        "backend_ids": backend_ids,
        "template_digests": template_digests(),
        "degraded_pairs": sorted(r.pair_id for r in outcome.results if r.degraded),
        "failed_pairs": sorted(f.pair_id for f in outcome.failures),
        "config": config_echo or {},
        "traces": {
            r.pair_id: [record.to_json() for record in r.trace]
            for r in outcome.results
        },
    }
    (run_dir / "manifest.json").write_text(
        json.dumps(manifest, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
        "utf-8",
    )
    return run_dir


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def load_result_payload(path: str | Path) -> DetectionResult:
    """Read one per-pair result file back into a DetectionResult (no trace)."""
    data = json.loads(Path(path).read_text("utf-8"))
    plan = data.get("plan")
    return DetectionResult(
        pair_id=str(data["pair_id"]),
        method=DetectionMethod(data["method"]),
        verdicts=tuple(Verdict.from_json(v) for v in data["verdicts"]),
        plan=ToolPlan.from_json(plan) if plan is not None else None,
        evidence=EvidenceBundle.from_json(data["evidence"]),
        degraded=bool(data["degraded"]),
        trace=(),
    )


def load_run_results(run_dir: str | Path) -> list[DetectionResult]:
    """Load every per-pair result file from a run directory."""
    run_dir = Path(run_dir)
    results = []
    for path in sorted(run_dir.glob("*.json")):
        if path.name in ("manifest.json", "errors.json"):
            continue
        results.append(load_result_payload(path))
    return results
