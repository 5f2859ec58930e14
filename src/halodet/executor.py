"""End-to-end orchestration of detection runs.

One pair flows through claim handling, query formulation, tool calls, and a
single verification call. Evidence merge order is fixed (object, then
attribute, then scene text, then fact, ordered inside each family by claim
index then query index), so results are invariant under scheduling.

A run owns one thread pool, ``width`` x 11 wide, and keeps ``width`` pairs
in flight. A pair's UniHD work is a list of tasks, each making one call and
returning the tasks its reply makes ready. One rule places every task:
submit all of a list but the last to the pool, run the last in the thread at
hand, and apply the same rule to the tasks it returns. A pair's first task,
submitted with the pair, starts scene-text, fact and object formulation; the
object reply makes object detection and the attribute formulation ready, and
each other reply makes its tool calls ready, one per distinct query. The task
that finishes a pair's last call verifies the pair and admits the next one.
No thread waits on another; the caller waits once, for the whole batch.

Each pair owns one call object, ``_PairCalls``, through which every model
and tool call of the pair passes. Whatever the family, a call reads the
cache, calls its backend on a miss, writes the reply back and leaves one
trace record. A backend call that raises BackendUnavailable is tried up to
``RETRY_ATTEMPTS`` (3) times, waiting 1 s and then 2 s, each wait jittered
by ±10%: full exponential backoff with jitter, after M. Brooker,
"Exponential Backoff And Jitter" (2015). Identical mock runs are
byte-identical whether cache-cold, cache-warm, or at any parallelism width,
and the trace records exactly one entry, with its attempt count, per call.
"""

from __future__ import annotations

import json
import logging
import os
import random
import threading
import time
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Sequence

from .cache import CacheKey, DiskCache
from .errors import BackendUnavailable, ConfigInvalid, ResultFileInvalid, StoreCorrupt
from .gateway import ModelGateway, ModelRequest, ModelResponse, request_digest
from .hashing import sha256_json, sha256_text
from .model import (
    RUN_FILE_STEMS,
    EvidenceBundle,
    FactEvidence,
    ImageTextPair,
    Verdict,
    each,
    invalid,
    member,
    record,
    typed,
    validate_pair,
    within,
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

RETRY_ATTEMPTS = 3
RETRY_FIRST_DELAY_S = 1.0  # doubled before each later retry
RETRY_JITTER = 0.1


@dataclass(frozen=True)
class TraceRecord:
    """One executed stage: what went in, what came out, whether it was cached,
    and how many backend calls it took (0 for a cache hit)."""

    stage: str
    input_digest: str
    output_digest: str
    duration_ms: int
    cache_hit: bool
    attempts: int

    def to_json(self) -> dict[str, Any]:
        return dict(vars(self))  # the fields, in order


@dataclass(frozen=True)
class DetectionResult:
    pair_id: str
    method: DetectionMethod
    verdicts: tuple[Verdict, ...]
    plan: ToolPlan | None
    evidence: EvidenceBundle
    degraded: bool
    trace: tuple[TraceRecord, ...]
    _KEYS = frozenset({"pair_id", "method", "plan", "evidence", "verdicts", "degraded"})

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

    @classmethod
    def from_payload(cls, data: Any) -> "DetectionResult":
        """Read back what ``payload_json`` wrote; the trace is left empty."""
        record(data, cls._KEYS)
        if "plan" not in data:  # the one value that may be null
            raise invalid("expected an object or null", "plan")
        plan = data["plan"]
        return cls(typed(data.get("pair_id"), str, "pair_id"),
                   member(data.get("method"), DetectionMethod, "method"),
                   each(data.get("verdicts"), Verdict.from_json, "verdicts"),
                   None if plan is None else within(plan, ToolPlan.from_json, "plan"),
                   within(data.get("evidence"), EvidenceBundle.from_json, "evidence"),
                   typed(data.get("degraded"), bool, "degraded"), ())


@dataclass(frozen=True)
class PairFailure:
    pair_id: str
    error_type: str
    message: str
    trace: tuple[TraceRecord, ...]
    error: Exception = field(compare=False, repr=False)  # not written; run_detection raises it

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


class _PairCalls:
    """One pair of a run: every backend call it makes, through one cache-and-trace path.

    ``complete`` is the gateway face the stages call. ``run`` is the pair's
    first task and ``_run`` places the tasks by the rule in the module
    docstring. ``_finish``, run by the task that finishes last, merges the
    tool results by plan position, never in completion order, and verifies.

    The cache holds each call's ``to_json()`` form; a model call returns it
    read back through ``ModelResponse.from_json``, a tool call as is. A
    pair's model requests are all distinct, so a repeated one is the retry
    of a reply its stage could not parse: it skips the cache read, and its
    reply replaces the cached one. Tool results live in one dict keyed by
    ``(stage, query)``, so a question repeated within a pair is asked once.
    Only the thread holding a stage's reply claims that stage's keys, so no
    claim races another; each task then fills in its own key.
    """

    def __init__(self, pair: ImageTextPair, position: int, batch: _Batch) -> None:
        self._pair = pair
        self._position = position
        self._batch = batch
        self._lock = threading.Lock()  # guards _records, _seen and _pending
        self._records: list[TraceRecord] = []
        self._seen: set[str] = set()
        self._pending = 0  # tasks made and not yet finished
        self._tools: dict[tuple[str, Any], Any] = {}  # a result or its error
        self._replies: dict[TemplateId, dict[int, tuple[str, ...]]] = {}
        self._failures: dict[TemplateId, Exception] = {}

    def _call(self, stage: str, key: CacheKey, compute: Callable[[], Any],
              read: bool = True) -> Any:
        """Serve ``key`` from the cache or ``compute``; record one trace entry.

        Each read counts in the batch; a corrupt entry is a miss, which the
        put then overwrites. A miss retries ``compute`` while it raises
        BackendUnavailable, waiting through the gateway's ``sleep``; any other
        error is final. The reply is put once, after the attempt that succeeded;
        a failed put is logged and the reply used. With ``read`` false the cache
        read is skipped, uncounted; the reply is written anyway.
        """
        started = time.monotonic()
        hit, value, cache, attempts = False, None, self._batch.cache, 0
        if cache is not None and read:
            try:
                hit, value = cache.get(key)
            except StoreCorrupt as exc:
                logger.warning("recomputing: %s", exc)
            self._batch.count(hit)
        if not hit:
            while True:
                attempts += 1
                try:
                    value = compute()
                    break
                except BackendUnavailable as exc:
                    if attempts == RETRY_ATTEMPTS:
                        raise BackendUnavailable(f"{key.backend_id} failed after "
                                                 f"{attempts} attempts: {exc}") from exc
                    delay = (RETRY_FIRST_DELAY_S * 2 ** (attempts - 1)
                             * (1.0 + random.uniform(-RETRY_JITTER, RETRY_JITTER)))
                    logger.debug("%s unavailable (attempt %d), retrying in %.2fs",
                                 key.backend_id, attempts, delay)
                    self._batch.gateway.sleep(delay)
            if cache is not None:
                try:
                    cache.put(key, value)
                except OSError as exc:
                    logger.warning("cache write failed, reply kept: %s", exc)
        model = key.tool_kind == "model"
        if model:  # checked like a tool item, whether cached or just computed
            value = ModelResponse.from_json(value)
        record = TraceRecord(
            stage=stage,
            input_digest=key.canonical_query if model else key.digest(),
            output_digest=sha256_text(value.text) if model else sha256_json(value),
            duration_ms=max(0, round((time.monotonic() - started) * 1000)),
            cache_hit=hit,
            attempts=attempts,
        )
        with self._lock:
            self._records.append(record)
        return value

    def trace(self) -> tuple[TraceRecord, ...]:
        """The records in a stable order, read once no call of the pair is left running."""
        return tuple(sorted(self._records, key=lambda r: (r.stage, r.input_digest)))

    def complete(self, request: ModelRequest) -> ModelResponse:
        digest = request_digest(request)
        with self._lock:
            retry = digest in self._seen
            self._seen.add(digest)
        backend_id = self._batch.gateway.backend.backend_id
        return self._call(
            f"model:{request.purpose_tag.value}", CacheKey.model(digest, backend_id),
            lambda: self._batch.gateway.complete(request).to_json(), read=not retry)

    # --- the UniHD schedule

    def _run(self, tasks: list[_Task]) -> None:
        """Submit all tasks but the last, run the last here, then the same for its
        tasks; the task that leaves none made and unfinished finishes the pair."""
        while tasks:
            *pooled, last = tasks
            for task in pooled:
                # A task list, not the pair: a submit that carries a pair admits it.
                self._batch.pool.submit(self._run, [task])
            tasks = last()
            with self._lock:
                self._pending += len(tasks) - 1
                finished = not self._pending
        if finished:
            self._finish()

    def run(self) -> None:
        """The pair's first task: its claims, then its UniHD calls, or the whole pair."""
        pair, batch = self._pair, self._batch
        try:
            violations = validate_pair(pair)
            if violations:
                raise ValueError(f"pair {pair.id!r} invalid: " + "; ".join(violations))
            if not pair.claims:
                claims = extract_claims(pair.text, self)
                self._pair = pair = replace(pair, claims=tuple(claims))
            if batch.method is DetectionMethod.UNIHD:
                if batch.backends is None:
                    raise ConfigInvalid("unihd requires tool backends")
                claim_list = render_claim_list([c.text for c in pair.claims])
                first = [self._formulation(pair, claim_list, template) for template in (
                    TemplateId.SCENE_TEXT_QUERY, TemplateId.FACT_QUERY,
                    TemplateId.OBJECT_QUERY)]
                self._pending = len(first)
                return self._run(first)
        except Exception as exc:  # noqa: BLE001 - the pair's outcome
            return self._store(exc)
        self._finish()

    def _finish(self) -> None:
        """The pair's continuation: the first formulation error in the order of
        ``FORMULATION_KINDS``, tagged with its ``template_id``, then the first tool
        error in merge order, else the verdicts; either way the outcome goes to the batch."""
        pair, method = self._pair, self._batch.method
        try:
            if method is DetectionMethod.UNIHD:
                for template in FORMULATION_KINDS:
                    if error := self._failures.get(template):
                        error.template_id = template  # type: ignore[attr-defined]
                        raise error
                plan = tool_plan(self._replies)
                evidence = self.evidence(plan)
                verdicts = verify(pair, evidence, self)
            else:
                plan, evidence = None, EvidenceBundle()
                shots = 0 if method is DetectionMethod.SELF_CHECK_0SHOT else 2
                verdicts = self_check(pair, shots, self, self._batch.demonstrations)
        except Exception as exc:  # noqa: BLE001 - the pair's outcome
            return self._store(exc)
        self._store(DetectionResult(pair.id, method, tuple(verdicts), plan, evidence,
                                    is_degraded(verdicts), self.trace()))

    def _store(self, outcome: DetectionResult | Exception) -> None:
        if isinstance(outcome, Exception):  # recorded with the stages that did complete
            outcome = PairFailure(self._pair.id, type(outcome).__name__, str(outcome),
                                  self.trace(), outcome)
        # No call is left; an error kept here would tie a cycle through its traceback.
        self._tools, self._failures, self._replies = {}, {}, {}
        self._batch.store(self._position, outcome)

    def _formulation(self, pair: ImageTextPair, claim_list: str, template: TemplateId,
                     objects: Sequence[str] = ()) -> _Task:
        def task() -> list[_Task]:
            # A task never raises: an error it let out would leave the pair unfinished.
            try:
                queries = formulate(pair, template, self, objects, claim_list)
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
            except Exception as exc:  # noqa: BLE001 - raised by _finish(), in fixed order
                self._failures[template] = exc
                return []
        return task

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
        image, detector = self._pair.image, self._batch.backends.object_detector
        return self._tool(
            _DETECT, None,
            lambda: CacheKey.object_detect(image.digest, labels, detector.backend_id),
            lambda: [e.to_json() for e in detect_objects(detector, image, labels)],
        )

    def _read(self) -> list[_Task]:
        image, reader = self._pair.image, self._batch.backends.scene_text_reader
        return self._tool(
            _READ, None, lambda: CacheKey.scene_text(image.digest, reader.backend_id),
            lambda: [e.to_json() for e in read_scene_text(reader, image)],
        )

    def _answer(self, question: str) -> list[_Task]:
        image, answerer = self._pair.image, self._batch.backends.attribute_answerer
        return self._tool(
            _ANSWER, question,
            lambda: CacheKey.attribute(image.digest, question, answerer.backend_id),
            lambda: answerer.answer(image, question).to_json(),
        )

    def _search(self, question: str) -> list[_Task]:
        searcher = self._batch.backends.fact_searcher
        return self._tool(
            _SEARCH, question,
            lambda: CacheKey.fact_search(question, searcher.backend_id),
            lambda: FactEvidence(question=question, snippets=tuple(
                fact_snippet_line(s) for s in search_facts(searcher, question))).to_json(),
        )

    def evidence(self, plan: ToolPlan) -> EvidenceBundle:
        """Merge the tool results by plan position; the first error in merge order is
        raised. Detection and scene text, asked at most once a pair, are empty if not asked."""
        def result(value: Any) -> Any:
            if isinstance(value, Exception):
                raise value
            return value

        tools, claims = self._tools, plan.per_claim
        objects = result(tools.get((_DETECT, None), []))
        attributes = [result(tools[(_ANSWER, q)]) for c in claims for q in c.attribute_questions]
        scene_texts = result(tools.get((_READ, None), []))
        facts = [result(tools[(_SEARCH, q)]) for c in claims for q in c.fact_questions]
        return EvidenceBundle.from_json({"objects": objects, "attributes": attributes,
                                         "scene_texts": scene_texts, "facts": facts})


# --- single-pair and batch drivers --------------------------------------------------


@dataclass
class _Batch:
    """One run: one pool, ``width`` x 11 threads, and at most ``width`` pairs in flight.

    A pair is admitted by submitting its first task with the pair as its
    argument; the task that finishes a pair admits the next. ``outcomes``
    holds each pair's result or failure record, in input order.
    """

    pairs: Sequence[ImageTextPair]
    method: DetectionMethod
    backends: ToolBackendSet | None
    gateway: ModelGateway
    cache: DiskCache | None
    demonstrations: Sequence[SelfCheckDemo]

    def __post_init__(self) -> None:
        self.outcomes: list[DetectionResult | PairFailure | None] = [None] * len(self.pairs)
        self.pool: Executor | None = None
        self._lock = threading.Lock()  # guards _admitted, _finished, hits and misses
        self._admitted = self._finished = self.hits = self.misses = 0
        self._done = threading.Event()

    def run(self, width: int) -> BatchOutcome:
        if self.pairs:
            # Per pair in flight: its first task, the 2 pooled formulation
            # calls and up to 8 tool calls.
            with ThreadPoolExecutor(max_workers=width * 11,
                                    thread_name_prefix="halodet") as self.pool:
                for _ in range(width):
                    self._admit()
                self._done.wait()
        if self.cache is not None:
            try:
                self.cache.flush_stats(self.hits, self.misses)
            except OSError as exc:
                logger.warning("cache stats not saved: %s", exc)
        return BatchOutcome([o for o in self.outcomes if isinstance(o, DetectionResult)],
                            [o for o in self.outcomes if isinstance(o, PairFailure)])

    def _admit(self) -> None:
        with self._lock:
            position, self._admitted = self._admitted, self._admitted + 1
        if position < len(self.pairs):
            self.pool.submit(self._start, position, self.pairs[position])

    def _start(self, position: int, pair: ImageTextPair) -> None:
        _PairCalls(pair, position, self).run()

    def count(self, hit: bool) -> None:
        with self._lock:
            self.hits += hit
            self.misses += not hit

    def store(self, position: int, outcome: DetectionResult | PairFailure) -> None:
        self.outcomes[position] = outcome
        self._admit()  # a submit, so the stack does not grow from pair to pair
        with self._lock:
            self._finished += 1
            if self._finished == len(self.pairs):
                self._done.set()


def run_detection(
    pair: ImageTextPair,
    method: DetectionMethod,
    backends: ToolBackendSet | None,
    gateway: ModelGateway,
    cache: DiskCache | None = None,
    demonstrations: Sequence[SelfCheckDemo] = (),
) -> DetectionResult:
    """Run one pair through the selected detection method, raising its error.

    With pre-annotated claims (benchmark mode) extraction is skipped; an
    unannotated pair goes through the extraction stage first. The self-check
    methods never touch tool backends and carry empty evidence.
    """
    outcome = _Batch([pair], method, backends, gateway, cache, demonstrations).run(width=1)
    for failure in outcome.failures:
        raise failure.error
    return outcome.results[0]


def run_batch(
    pairs: Sequence[ImageTextPair],
    method: DetectionMethod,
    backends: ToolBackendSet | None,
    gateway: ModelGateway,
    cache: DiskCache | None = None,
    width: int = 4,
    demonstrations: Sequence[SelfCheckDemo] = (),
) -> BatchOutcome:
    """Drive a batch with ``width`` pairs in flight and per-pair failure isolation.

    Results come back in input order regardless of completion order; a
    failing pair becomes a failure record and never halts its neighbors.
    """
    if width < 1:
        raise ConfigInvalid(f"width must be >= 1, got {width}")
    ids = [pair.id for pair in pairs]
    if len(set(ids)) != len(ids):
        raise ConfigInvalid("pair ids must be unique within a batch")

    outcome = _Batch(pairs, method, backends, gateway, cache, demonstrations).run(width)
    # A failure keeps its type, message and trace. Tracebacks go, along each
    # cause and context: their frames hold the pair's calls, which hold them.
    chain = [failure.error for failure in outcome.failures]
    while chain:
        exc = chain.pop()
        if exc is not None and exc.__traceback__ is not None:
            exc.__traceback__ = None
            chain += (exc.__cause__, exc.__context__)
    return outcome


# --- run directory ---------------------------------------------------------------


def write_run_dir(
    out_dir: str | Path,
    run_id: str,
    outcome: BatchOutcome,
    method: DetectionMethod,
    backend_ids: dict[str, str],
    config_echo: dict[str, Any] | None = None,
) -> Path:
    """Write ``results/<run-id>/{manifest.json, <pair-id>.json, errors.json}``.

    Per-pair files hold only the deterministic payload; timings, cache hits,
    and the wall clock go into the manifest. The run directory must not
    already exist; concurrent invocations need distinct run ids.
    """
    run_dir = Path(out_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=False)

    for result in outcome.results:
        _write_json(run_dir / f"{result.pair_id}.json", result.payload_json())
    _write_json(run_dir / "errors.json", [f.to_json() for f in outcome.failures])

    manifest = {
        "run_id": run_id,
        "created_at": _utc_now(),
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
    _write_json(run_dir / "manifest.json", manifest)
    return run_dir


def _write_json(path: Path, value: Any) -> None:
    path.write_text(json.dumps(value, ensure_ascii=False, indent=2, sort_keys=True) + "\n",
                    "utf-8")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def load_result_payload(path: str | Path) -> DetectionResult:
    """Read one per-pair result file back into a DetectionResult (no trace).

    A file that does not decode raises ResultFileInvalid naming the file and,
    unless the file is not JSON, the JSON pointer of the value at fault.
    """
    with open(path, "rb") as file:
        raw = file.read()
    try:
        return within(json.loads(raw), DetectionResult.from_payload)
    except (ValueError, RecursionError) as exc:  # "<pointer>: <reason>", or why not JSON
        raise ResultFileInvalid(str(path), str(exc)) from exc


def load_run_results(run_dir: str | Path) -> list[DetectionResult]:
    """Load every ``<pair-id>.json`` file; one that holds another pair is invalid."""
    results = []
    for name in sorted(os.listdir(run_dir)):
        stem = name[:-5]
        if name.endswith(".json") and stem not in RUN_FILE_STEMS:
            path = os.path.join(run_dir, name)
            result = load_result_payload(path)
            if result.pair_id != stem:
                raise ResultFileInvalid(path, f"holds pair {result.pair_id!r}")
            results.append(result)
    return results
