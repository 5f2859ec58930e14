"""End-to-end orchestration of detection runs.

One pair flows through claim handling, query formulation, tool calls, and a
single verification call. Evidence merge order is fixed (object, then
attribute, then scene text, then fact, ordered inside each family by claim
index then query index), so results are invariant under scheduling.

A run owns two thread pools: one running pairs, ``width`` wide, and one
shared call pool, ``width`` x 10 wide. A pair's UniHD work is a list of
tasks, each making one call and returning the tasks its reply makes ready.
One rule places every task: submit all of a list but the last to the call
pool, run the last in the thread at hand, and apply the same rule to the
tasks it returns. The pair thread starts with scene-text, fact and object
formulation; the object reply makes object detection and the attribute
formulation ready, and each other reply makes its tool calls ready, one per
distinct query. Verification starts once no task is left. Pair threads
wait for call-pool tasks; those never wait, so the pools cannot deadlock.

Each pair owns one call object, ``_PairCalls``, through which every model
and tool call of the pair passes. Whatever the family, a call reads the
cache, calls its backend on a miss, writes the reply back and leaves one
trace record. Identical mock runs are byte-identical whether cache-cold,
cache-warm, or at any parallelism width, and the trace records exactly one
entry per backend invocation.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from concurrent.futures import Executor, Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

from .cache import CacheKey, DiskCache
from .errors import ConfigInvalid, ResultFileInvalid, StoreCorrupt
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
from .prompts import TemplateId, render_claim_list, template_digests
from .stages import (
    FORMULATION_KINDS,
    DetectionMethod,
    SelfCheckDemo,
    ToolPlan,
    extract_claims,
    formulate,
    is_degraded,
    label_union,
    self_check,
    tool_plan,
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

# One call; returns the tasks its reply makes ready.
_Task = Callable[[], list]

# Tool stages, the first half of each tool result's key.
_DETECT, _READ, _ANSWER, _SEARCH = (
    "tool:object-detect", "tool:scene-text", "tool:attribute", "tool:fact-search")


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

    ``complete`` is the gateway face the stages call. ``plan`` runs the
    pair's UniHD calls as tasks: a task makes one call and returns the tasks
    its reply makes ready, and ``_run`` places them by the one rule in the
    module docstring. ``evidence`` then merges the tool results by plan
    position, never in completion order.

    Each call returns the JSON form the cache stores: ``{"text": ...}`` for
    a model reply, the ``to_json()`` evidence for a tool. A pair's model
    requests are all distinct, so a repeated one is the retry of a reply its
    stage could not parse: it skips the cache read, and its reply replaces
    the cached one. Tool results live in one dict keyed by ``(stage,
    query)``, so a question repeated within a pair is asked once. Only the
    thread holding a stage's reply claims that stage's keys, so no claim
    races another; each task then fills in its own key.
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
        self._pooled: list[Future] = []
        self._tools: dict[tuple[str, Any], Any] = {}  # a result or its error
        self._replies: dict[TemplateId, dict[int, tuple[str, ...]]] = {}
        self._failures: dict[TemplateId, Exception] = {}

    def _call(self, stage: str, key: CacheKey, compute: Callable[[], Any],
              read: bool = True) -> Any:
        """Serve ``key`` from the cache or ``compute``; record one trace entry.

        A corrupt entry is a miss, which the put then overwrites. A failed
        put is logged and the reply used. With ``read`` false the cache read
        is skipped; the reply is written anyway.
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
                try:
                    self._cache.put(key, value)
                except OSError as exc:
                    logger.warning("cache write failed, reply kept: %s", exc)
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

    # --- the UniHD schedule

    def _run(self, tasks: list[_Task]) -> None:
        """Submit all tasks but the last, run the last here, then the same for its tasks."""
        while tasks:
            *pooled, last = tasks
            for task in pooled:
                # A task list, not the pair: the call pool runs calls, not pairs.
                self._pooled.append(self._pool.submit(self._run, [task]))
            tasks = last()

    def plan(self, pair: ImageTextPair) -> ToolPlan:
        """Make the pair's formulation calls and every tool call they feed.

        Returns once no call is left running; formulation errors are raised
        in the order of ``FORMULATION_KINDS``, before any tool error.
        """
        claim_list = render_claim_list([c.text for c in pair.claims])
        first = [self._formulation(pair, claim_list, template) for template in (
            TemplateId.SCENE_TEXT_QUERY, TemplateId.FACT_QUERY, TemplateId.OBJECT_QUERY)]
        try:
            self._run(first)
        finally:
            self._settle()
        for future in self._pooled:
            future.result()  # raises only if a task itself broke
        for template in FORMULATION_KINDS:
            if template in self._failures:
                raise self._failures[template]
        return tool_plan(self._replies)

    def _formulation(self, pair: ImageTextPair, claim_list: str, template: TemplateId,
                     objects: Sequence[str] = ()) -> _Task:
        def task() -> list[_Task]:
            try:
                queries = formulate(pair, template, self, objects, claim_list)
            except Exception as exc:  # noqa: BLE001 - raised by plan(), in fixed order
                self._failures[template] = exc
                return []
            if self._failures:
                return []  # a reply after a failure makes nothing ready
            self._replies[template] = queries
            if template is TemplateId.OBJECT_QUERY:
                labels = tuple(label_union(queries.values()))
                return [*self._detect(labels), self._formulation(
                    pair, claim_list, TemplateId.ATTRIBUTE_QUERY, labels)]
            questions = [q for per_claim in queries.values() for q in per_claim]
            if template is TemplateId.SCENE_TEXT_QUERY:
                return self._read() if questions else []
            ask = self._search if template is TemplateId.FACT_QUERY else self._answer
            return [ready for q in questions for ready in ask(q)]
        return task

    def _settle(self) -> None:
        """Wait until every pooled task has finished and none has submitted another."""
        for future in self._pooled:  # iteration also reaches tasks appended meanwhile
            future.exception()

    def _tool(self, stage: str, query: Any, key: Callable[[], CacheKey],
              compute: Callable[[], Any]) -> list[_Task]:
        """The task for one tool call, or none if the pair already has it.

        The task never raises: its result or error lands in ``_tools``, so
        an error surfaces from ``evidence`` in merge order.
        """
        if (stage, query) in self._tools:
            return []
        self._tools[(stage, query)] = None  # claimed; the task fills it in

        def task() -> list[_Task]:
            try:
                self._tools[(stage, query)] = self._call(stage, key(), compute)
            except Exception as exc:  # noqa: BLE001 - re-raised by evidence()
                self._tools[(stage, query)] = exc
            return []
        return [task]

    def _detect(self, labels: tuple[str, ...]) -> list[_Task]:
        if not labels:
            return []
        image, detector = self._image, self._backends.object_detector
        return self._tool(
            _DETECT, labels,
            lambda: CacheKey.object_detect(image.digest, labels, detector.backend_id),
            lambda: [e.to_json() for e in detect_objects(detector, image, labels)],
        )

    def _read(self) -> list[_Task]:
        image, reader = self._image, self._backends.scene_text_reader
        return self._tool(
            _READ, None, lambda: CacheKey.scene_text(image.digest, reader.backend_id),
            lambda: [e.to_json() for e in read_scene_text(reader, image)],
        )

    def _answer(self, question: str) -> list[_Task]:
        image, answerer = self._image, self._backends.attribute_answerer
        return self._tool(
            _ANSWER, question,
            lambda: CacheKey.attribute(image.digest, question, answerer.backend_id),
            lambda: answerer.answer(image, question).to_json(),
        )

    def _search(self, question: str) -> list[_Task]:
        searcher, top_k = self._backends.fact_searcher, self._fact_top_k
        return self._tool(
            _SEARCH, question,
            lambda: CacheKey.fact_search(question, top_k, searcher.backend_id),
            lambda: FactEvidence(question=question, snippets=tuple(
                fact_snippet_line(s) for s in search_facts(searcher, question, top_k)
            )).to_json(),
        )

    def evidence(self, plan: ToolPlan) -> EvidenceBundle:
        """Merge the tool results by plan position; the first error in merge order is raised."""
        def result(stage: str, query: Any) -> Any:
            value = self._tools[(stage, query)]
            if isinstance(value, Exception):
                raise value
            return value

        claims = plan.per_claim
        labels = tuple(label_union(c.object_labels for c in claims))
        objects = result(_DETECT, labels) if labels else []
        attributes = [result(_ANSWER, q) for c in claims for q in c.attribute_questions]
        read = any(c.scene_text_questions for c in claims)
        scene_texts = result(_READ, None) if read else []
        facts = [result(_SEARCH, q) for c in claims for q in c.fact_questions]
        return EvidenceBundle(
            objects=tuple(map(evidence_from_json, objects)),
            attributes=tuple(map(evidence_from_json, attributes)),
            scene_texts=tuple(map(evidence_from_json, scene_texts)),
            facts=tuple(map(evidence_from_json, facts)),
        )


# --- single-pair and batch drivers --------------------------------------------------


def _call_pool(width: int) -> ThreadPoolExecutor:
    # Per pair: the 2 pooled formulation calls plus up to 8 tool calls.
    return ThreadPoolExecutor(max_workers=width * 10, thread_name_prefix="calls")


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
            plan = calls.plan(pair)
            evidence = calls.evidence(plan)
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
        try:
            cache.flush_stats()
        except OSError as exc:
            logger.warning("cache stats not saved: %s", exc)
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
    """Read one per-pair result file back into a DetectionResult (no trace).

    A file that is not JSON, or misses a key or has one of the wrong type,
    raises ResultFileInvalid naming the file.
    """
    try:
        with open(path, "rb") as file:
            data = json.loads(file.read())
        plan = data.get("plan")
        return DetectionResult(
            str(data["pair_id"]),
            DetectionMethod(data["method"]),
            tuple(map(Verdict.from_json, data["verdicts"])),
            ToolPlan.from_json(plan) if plan is not None else None,
            EvidenceBundle.from_json(data["evidence"]),
            bool(data["degraded"]),
            (),
        )
    except KeyError as exc:
        raise ResultFileInvalid(str(path), f"missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise ResultFileInvalid(str(path), f"cannot decode: {exc}") from exc


def load_run_results(run_dir: str | Path) -> list[DetectionResult]:
    """Load every ``<pair-id>.json`` file; one that holds another pair is invalid."""
    results = []
    for name in sorted(os.listdir(run_dir)):
        if name.endswith(".json") and name not in ("manifest.json", "errors.json"):
            path = os.path.join(run_dir, name)
            result = load_result_payload(path)
            if result.pair_id != name[:-5]:
                raise ResultFileInvalid(path, f"holds pair {result.pair_id!r}")
            results.append(result)
    return results
