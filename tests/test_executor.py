"""Orchestration: call scheduling, merge determinism, cache soundness, batch isolation."""

from __future__ import annotations

import collections
import errno
import gc
import json
import random
import re
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import e2e_scenario
import store_records
from conftest import (
    ScriptedModelBackend,
    TableBackend,
    formulate_queries,
    image_ref,
    table_gateway,
)
from halodet.cache import DiskCache
from halodet.errors import (
    BackendUnavailable,
    ConfigInvalid,
    InvalidImage,
    ResultFileInvalid,
    UnparseableModelOutput,
)
from halodet.executor import (
    BatchOutcome,
    DetectionResult,
    load_result_payload,
    load_run_results,
    run_batch,
    run_detection,
    write_run_dir,
)
from halodet.gateway import ModelGateway, PurposeTag
from halodet.hashing import sha256_json
from halodet.model import (
    Claim,
    EvidenceBundle,
    FactEvidence,
    ImageTextPair,
    Label,
    NormBox,
    ObjectEvidence,
    ParseFlag,
    SceneTextEvidence,
    TaskType,
    Verdict,
)
from halodet.prompts import TemplateId
from halodet.stages import ClaimQueries, DetectionMethod, ToolPlan
from halodet.tools import FactSnippet, ToolBackendSet


class CountingDetector:
    backend_id = "counting-detector"

    def __init__(self, items=()):
        self.items = list(items)
        self.calls = 0

    def detect(self, image, labels):
        self.calls += 1
        return list(self.items)


class CountingReader:
    backend_id = "counting-reader"

    def __init__(self, items=()):
        self.items = list(items)
        self.calls = 0

    def read(self, image):
        self.calls += 1
        return list(self.items)


class CountingSearcher:
    backend_id = "counting-searcher"

    def __init__(self, items=()):
        self.items = list(items)
        self.calls = 0

    def search(self, question, top_k):
        self.calls += 1
        return list(self.items)


class CountingAnswerer:
    backend_id = "counting-answerer"

    def __init__(self, answer="It is red."):
        self.answer_text = answer
        self.calls = 0

    def answer(self, image, question):
        from halodet.model import AttributeEvidence

        self.calls += 1
        return AttributeEvidence(question=question, answer=self.answer_text)


def _backends(detections=(), scene=(), snippets=()):
    return ToolBackendSet(
        object_detector=CountingDetector(detections),
        attribute_answerer=CountingAnswerer(),
        scene_text_reader=CountingReader(scene),
        fact_searcher=CountingSearcher(snippets),
    )


def _tool_calls(backends):
    return (backends.object_detector.calls + backends.attribute_answerer.calls
            + backends.scene_text_reader.calls + backends.fact_searcher.calls)


def _athlete_pair(pair_id="athlete"):
    return ImageTextPair(
        id=pair_id,
        task=TaskType.IMAGE_CAPTIONING,
        image=image_ref(pair_id),
        text="The athlete on the right wears a blue uniform.",
        claims=(
            Claim(index=1, text="The athlete on the right side is wearing a blue uniform.",
                  gold_label=Label.HALLUCINATORY),
        ),
    )


_ATHLETE_RULES = [
    ("object extractor", '{"claim1":"athlete.uniform"}'),
    ("questions about attributes",
     '{"claim1":["What color is the uniform of the athlete on the right side?"]}'),
    ("questions about scene text", '{"claim1":["none"]}'),
    ("search engine questions", '{"claim1":["none"]}'),
    ("hallucination judger", json.dumps([
        {"claim1": "hallucination",
         "reason": "The attribute expert answered red, the claim says blue."},
    ])),
]

_ATHLETE_DETECTIONS = [
    ObjectEvidence("athlete", NormBox(0.12, 0.2, 0.45, 0.9)),
    ObjectEvidence("athlete", NormBox(0.55, 0.18, 0.88, 0.92)),
    ObjectEvidence("uniform", NormBox(0.15, 0.3, 0.42, 0.7)),
    ObjectEvidence("uniform", NormBox(0.58, 0.28, 0.85, 0.72)),
]


class TestRunDetectionUnihd:
    def test_attribute_routing_scenario(self):
        backends = _backends(detections=_ATHLETE_DETECTIONS)
        result = run_detection(
            _athlete_pair(), DetectionMethod.UNIHD, backends,
            table_gateway(_ATHLETE_RULES),
        )
        assert result.plan is not None
        assert result.plan.per_claim[0].object_labels == ("athlete", "uniform")
        assert result.plan.per_claim[0].attribute_questions == (
            "What color is the uniform of the athlete on the right side?",
        )
        assert len(result.evidence.objects) == 4
        assert result.evidence.attributes[0].answer == "It is red."
        assert result.evidence.scene_texts == ()
        assert result.evidence.facts == ()
        assert [v.label for v in result.verdicts] == [Label.HALLUCINATORY]
        assert not result.degraded
        # scene-text tool gated off by an all-none plan
        assert backends.scene_text_reader.calls == 0

    def test_empty_plan_still_verifies(self):
        rules = [
            ("object extractor", '{"claim1":"none"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
            ("hallucination judger",
             '[{"claim1":"non-hallucination","reason":"nothing conflicts"}]'),
        ]
        backends = _backends()
        gateway = table_gateway(rules)
        result = run_detection(_athlete_pair(), DetectionMethod.UNIHD, backends, gateway)
        assert _tool_calls(backends) == 0
        assert [v.label for v in result.verdicts] == [Label.NON_HALLUCINATORY]
        verify_request = gateway.backend.requests[-1]
        assert verify_request.prompt.user.split("<Input>:")[1].count("none information") == 4

    def test_invalid_pair_rejected(self):
        pair = ImageTextPair(
            id="bad", task=TaskType.VQA, image=image_ref("bad"), text="t",
            claims=(Claim(index=2, text="skipped index"),),
        )
        with pytest.raises(ValueError):
            run_detection(pair, DetectionMethod.UNIHD, _backends(), table_gateway([]))

    def test_self_check_carries_no_evidence(self):
        rules = [("hallucination judger",
                  '[{"claim1":"non-hallucination","reason":"looks fine"}]')]
        backends = _backends(detections=_ATHLETE_DETECTIONS)
        result = run_detection(
            _athlete_pair(), DetectionMethod.SELF_CHECK_0SHOT, backends,
            table_gateway(rules),
        )
        assert result.plan is None
        assert result.evidence == EvidenceBundle()
        assert _tool_calls(backends) == 0

    def test_preannotated_claims_skip_extraction(self):
        # No extraction rule exists; with claims supplied, none is needed.
        result = run_detection(
            _athlete_pair(), DetectionMethod.UNIHD,
            _backends(detections=_ATHLETE_DETECTIONS),
            table_gateway(_ATHLETE_RULES),
        )
        assert not any(r.stage == "model:extract" for r in result.trace)

    def test_unannotated_pair_goes_through_extraction(self):
        from dataclasses import replace

        bare = replace(_athlete_pair(), claims=())
        rules = [("claim extractor",
                  '{"claim1":"The athlete on the right side is wearing a blue '
                  'uniform."}')] + _ATHLETE_RULES
        result = run_detection(
            bare, DetectionMethod.UNIHD, _backends(detections=_ATHLETE_DETECTIONS),
            table_gateway(rules),
        )
        assert any(r.stage == "model:extract" for r in result.trace)
        assert len(result.verdicts) == 1


# A stored model reply of the wrong shape, and the error it fails its pair with.
_MALFORMED_MODEL_VALUES = [
    ({"text": 5}, "/text: expected a string"),
    ([], "/: expected an object"),
    ({"text": "x", "extra": 1}, "/extra: unknown key"),
]


class TestCacheContract:
    def test_warm_run_hits_everywhere_and_skips_backends(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        cold_backends = _backends(detections=_ATHLETE_DETECTIONS)
        cold = run_detection(_athlete_pair(), DetectionMethod.UNIHD, cold_backends,
                             table_gateway(_ATHLETE_RULES), cache=cache)
        assert any(not r.cache_hit for r in cold.trace)

        warm_backends = _backends(detections=_ATHLETE_DETECTIONS)
        warm_gateway = table_gateway(_ATHLETE_RULES)
        warm = run_detection(_athlete_pair(), DetectionMethod.UNIHD, warm_backends,
                             warm_gateway, cache=cache)
        assert all(r.cache_hit for r in warm.trace)
        assert warm_gateway.backend.calls == 0
        assert _tool_calls(warm_backends) == 0
        assert warm.payload_json() == cold.payload_json()

    def test_cache_soundness_vs_disabled(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        with_cache = run_detection(
            _athlete_pair(), DetectionMethod.UNIHD,
            _backends(detections=_ATHLETE_DETECTIONS),
            table_gateway(_ATHLETE_RULES), cache=cache)
        without_cache = run_detection(
            _athlete_pair(), DetectionMethod.UNIHD,
            _backends(detections=_ATHLETE_DETECTIONS),
            table_gateway(_ATHLETE_RULES), cache=None)
        dump = lambda r: json.dumps(r.payload_json(), sort_keys=True)
        assert dump(with_cache) == dump(without_cache)

    def test_trace_counts_every_backend_invocation_once(self):
        backends = _backends(detections=_ATHLETE_DETECTIONS)
        gateway = table_gateway(_ATHLETE_RULES)
        result = run_detection(_athlete_pair(), DetectionMethod.UNIHD, backends, gateway)
        model_records = [r for r in result.trace if r.stage.startswith("model:")]
        tool_records = [r for r in result.trace if r.stage.startswith("tool:")]
        assert len(model_records) == gateway.backend.calls
        assert len(tool_records) == _tool_calls(backends)
        assert all(not r.cache_hit for r in result.trace)


    def test_corrupt_entries_are_recomputed(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")

        def run(run_id):
            backends = _backends(detections=_ATHLETE_DETECTIONS)
            gateway = table_gateway(_ATHLETE_RULES)
            outcome = run_batch([_athlete_pair()], DetectionMethod.UNIHD, backends,
                                gateway, cache=cache, width=1)
            run_dir = write_run_dir(tmp_path, run_id, outcome, DetectionMethod.UNIHD, {})
            calls = gateway.backend.calls + _tool_calls(backends)
            return outcome, calls, (run_dir / "athlete.json").read_bytes()

        _, _, cold_bytes = run("cold")
        records = store_records.records(tmp_path / "cache")
        cold_entries = {record.digest: record.body for record in records}
        entries = {}
        for record in records:
            entries.setdefault(record.json()["key"]["tool_kind"], record)
        for kind in ("model", "object-detect"):
            entry = entries[kind].json()
            entry["value"] = {"tampered": True}
            store_records.rewrite(entries[kind], json.dumps(entry, separators=(",", ":")))
        # Valid JSON that is not an entry object is as unreadable as a tamper.
        bodies = ["[]", '"x"', "null"]
        others = [record for record in records if record not in entries.values()]
        for record, body in zip(others, bodies):
            store_records.rewrite(record, body)

        outcome, calls, rerun_bytes = run("rerun")
        assert outcome.failures == []
        assert calls == 2 + len(bodies)
        assert rerun_bytes == cold_bytes
        # Each recomputed reply is appended, and the latest record of every
        # key holds the cold bytes again.
        latest = {record.digest: record.body
                  for record in store_records.records(tmp_path / "cache")}
        assert latest == cold_entries

        _, calls, third_bytes = run("third")
        assert calls == 0
        assert third_bytes == cold_bytes

    @pytest.mark.parametrize("value, error", _MALFORMED_MODEL_VALUES,
                             ids=["text-not-a-string", "not-an-object", "extra-key"])
    def test_a_cached_model_reply_is_checked(self, tmp_path, value, error):
        # The record keeps a correct digest, so the cache serves the value as is.
        def run():
            return run_batch([_athlete_pair()], DetectionMethod.UNIHD,
                             _backends(detections=_ATHLETE_DETECTIONS),
                             table_gateway(_ATHLETE_RULES), cache=DiskCache(tmp_path), width=1)

        assert run().failures == []
        for record in store_records.records(tmp_path):
            entry = record.json()
            if entry["key"]["tool_kind"] == "model":
                entry.update(value=value, value_sha256=sha256_json(value))
                store_records.rewrite(record, json.dumps(entry, separators=(",", ":")))
        [failure] = run().failures
        assert (failure.error_type, failure.message) == ("ValueError", error)

    def test_a_failed_cache_write_does_not_fail_a_pair(self, tmp_path):
        class FullDisk(DiskCache):
            def put(self, key, value):
                raise OSError(errno.ENOSPC, "No space left on device")

        full = _scenario_run(FullDisk(tmp_path / "cache"))
        assert full.failures == []
        assert _payloads(full) == _payloads(_scenario_run(None))

    def test_a_failed_stats_flush_keeps_the_batch(self, tmp_path):
        class ReadOnlyStats(DiskCache):
            def flush_stats(self):
                raise OSError(errno.EROFS, "Read-only file system")

        outcome = _scenario_run(ReadOnlyStats(tmp_path / "cache"))
        assert not outcome.failures
        assert len(outcome.results) == 6


class TestSingleFlight:
    def test_repeated_questions_in_a_pair_call_each_backend_once(self):
        pair = ImageTextPair(
            id="twins", task=TaskType.IMAGE_CAPTIONING, image=image_ref("twins"),
            text="Two athletes in red.",
            claims=(Claim(index=1, text="The first athlete wears red."),
                    Claim(index=2, text="The second athlete wears red.")),
        )
        question, fact = "What color is the uniform?", "Who makes the uniform?"
        rules = [
            ("object extractor", '{"claim1":"athlete","claim2":"athlete"}'),
            ("questions about attributes",
             json.dumps({"claim1": [question], "claim2": [question]})),
            ("questions about scene text", '{"claim1":["none"],"claim2":["none"]}'),
            ("search engine questions", json.dumps({"claim1": [fact], "claim2": [fact]})),
            ("hallucination judger", json.dumps([
                {"claim1": "non-hallucination", "reason": "red"},
                {"claim2": "non-hallucination", "reason": "red"},
            ])),
        ]
        backends = _backends(detections=_ATHLETE_DETECTIONS,
                             snippets=[FactSnippet("Maker", "A maker.", "https://m")])
        result = run_detection(pair, DetectionMethod.UNIHD, backends, table_gateway(rules))
        assert backends.attribute_answerer.calls == 1
        assert backends.fact_searcher.calls == 1
        assert backends.object_detector.calls == 1
        assert [e.question for e in result.evidence.attributes] == [question, question]
        assert [e.question for e in result.evidence.facts] == [fact, fact]
        assert len([r for r in result.trace if r.stage.startswith("tool:")]) == 3


def _rules_for(pair_id, verdict="non-hallucination"):
    return [
        ("object extractor", '{"claim1":"none"}'),
        ("questions about attributes", '{"claim1":["none"]}'),
        ("questions about scene text", '{"claim1":["none"]}'),
        ("search engine questions", '{"claim1":["none"]}'),
        ("hallucination judger",
         json.dumps([{"claim1": verdict, "reason": f"judged {pair_id}"}])),
    ]


def _simple_pairs(n):
    pairs = []
    for i in range(n):
        pairs.append(ImageTextPair(
            id=f"pair-{i}", task=TaskType.TEXT_TO_IMAGE, image=image_ref(f"pair-{i}"),
            text=f"synthetic prompt {i}",
            claims=(Claim(index=1, text=f"claimable thing {i}",
                          gold_label=Label.NON_HALLUCINATORY),),
        ))
    return pairs


class TestRunBatch:
    def _gateway(self):
        rules = [
            ("object extractor", '{"claim1":"none"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
            ("hallucination judger",
             '[{"claim1":"non-hallucination","reason":"all clear"}]'),
        ]
        return table_gateway(rules)

    def test_results_in_input_order(self):
        pairs = _simple_pairs(3)
        outcome = run_batch(pairs, DetectionMethod.UNIHD, _backends(), self._gateway(),
                            width=2)
        assert [r.pair_id for r in outcome.results] == ["pair-0", "pair-1", "pair-2"]
        assert not outcome.failures

    def test_unparseable_verify_reply_degrades_without_failing(self):
        pairs = _simple_pairs(3)
        # Only pair-1's verify reply is garbage; routing is by its claim text.
        gateway = table_gateway([
            ("object extractor", '{"claim1":"none"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
            ("claimable thing 1", "garbage that never parses"),
            ("hallucination judger",
             '[{"claim1":"non-hallucination","reason":"all clear"}]'),
        ])
        outcome = run_batch(pairs, DetectionMethod.UNIHD, _backends(), gateway, width=3)
        assert len(outcome.results) == 3
        degraded = [r for r in outcome.results if r.degraded]
        assert [r.pair_id for r in degraded] == ["pair-1"]
        assert ParseFlag.UNVERIFIED in degraded[0].verdicts[0].parse_flags

    def test_a_reply_nested_too_deeply_is_retried_then_degrades(self):
        # A model looping on "[" up to its token cap: retried once, like any garbage.
        backend = ScriptedModelBackend(["[" * 5000, "[" * 5000])
        outcome = run_batch(_simple_pairs(1), DetectionMethod.SELF_CHECK_0SHOT, _backends(),
                            ModelGateway(backend, sleep=lambda _: None))
        assert (outcome.failures, backend.calls) == ([], 2)
        [result] = outcome.results
        assert result.degraded
        assert ParseFlag.UNVERIFIED in result.verdicts[0].parse_flags

    def test_hard_failure_becomes_error_record(self):
        pairs = _simple_pairs(3)

        class ExplodingSearcher(CountingSearcher):
            def search(self, question, top_k):
                raise RuntimeError("provider exploded")

        gateway = table_gateway([
            ("object extractor", '{"claim1":"none"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("claimable thing 1", '{"claim1":["Who made thing 1?"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
            ("hallucination judger",
             '[{"claim1":"non-hallucination","reason":"all clear"}]'),
        ])
        backends = _backends()
        backends.fact_searcher = ExplodingSearcher()
        outcome = run_batch(pairs, DetectionMethod.UNIHD, backends, gateway, width=3)
        assert [r.pair_id for r in outcome.results] == ["pair-0", "pair-2"]
        assert [f.pair_id for f in outcome.failures] == ["pair-1"]
        assert outcome.failures[0].error_type == "RuntimeError"
        assert outcome.failures

    def test_duplicate_ids_rejected(self):
        pairs = _simple_pairs(2)
        with pytest.raises(ConfigInvalid):
            run_batch([pairs[0], pairs[0]], DetectionMethod.UNIHD, _backends(),
                      self._gateway())

    def test_a_width_below_one_is_rejected(self):
        with pytest.raises(ConfigInvalid, match="width must be >= 1, got 0"):
            run_batch(_simple_pairs(1), DetectionMethod.UNIHD, _backends(), self._gateway(),
                      width=0)

    def test_unihd_without_tool_backends_fails_each_pair(self):
        outcome = run_batch(_simple_pairs(2), DetectionMethod.UNIHD, None, self._gateway())
        assert [(f.pair_id, f.error_type, f.message) for f in outcome.failures] == [
            (f"pair-{i}", "ConfigInvalid", "unihd requires tool backends") for i in range(2)]

    def test_width_invariance(self):
        pairs = _simple_pairs(5)
        dumps = []
        for width in (1, 4, 8):
            outcome = run_batch(pairs, DetectionMethod.UNIHD, _backends(),
                                self._gateway(), width=width)
            dumps.append(json.dumps([r.payload_json() for r in outcome.results],
                                    sort_keys=True))
        assert dumps[0] == dumps[1] == dumps[2]


class TestRunDir:
    def test_layout_and_round_trip(self, tmp_path):
        # Every evidence kind, and a verification reply that fails twice: the
        # sound entry is kept flagged repaired, the other is flagged unverified.
        pairs = [
            replace(pair, claims=(*pair.claims, Claim(index=2, text=f"second {pair.id}",
                                                      gold_label=Label.HALLUCINATORY)))
            for pair in _simple_pairs(2)
        ]
        gateway = table_gateway([
            ("object extractor", '{"claim1":"athlete","claim2":"none"}'),
            ("questions about attributes",
             '{"claim1":["What color is the uniform?"],"claim2":["none"]}'),
            ("questions about scene text", '{"claim1":["none"],"claim2":["What is written?"]}'),
            ("search engine questions", '{"claim1":["none"],"claim2":["Who won?"]}'),
            ("hallucination judger",
             '[{"claim1":"non-hallucination","reason":"all clear"},{"claim2":"perhaps"}]'),
        ])
        backends = _backends(
            detections=_ATHLETE_DETECTIONS[:2],
            scene=[SceneTextEvidence("FINISH", NormBox(0.1, 0.1, 0.5, 0.2))],
            snippets=[FactSnippet("Race", "The red team won.", "https://r")],
        )
        outcome = run_batch(pairs, DetectionMethod.UNIHD, backends, gateway)
        evidence = outcome.results[0].evidence
        assert all((evidence.objects, evidence.attributes, evidence.scene_texts,
                    evidence.facts))
        assert [v.parse_flags for v in outcome.results[0].verdicts] == [
            frozenset({ParseFlag.REPAIRED}), frozenset({ParseFlag.UNVERIFIED})]
        run_dir = write_run_dir(tmp_path, "run-x", outcome,
                                method=DetectionMethod.UNIHD,
                                backend_ids={"model": "table"})
        names = sorted(p.name for p in run_dir.iterdir())
        assert names == ["errors.json", "manifest.json", "pair-0.json", "pair-1.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["method"] == "unihd"
        assert set(manifest["traces"]) == {"pair-0", "pair-1"}
        assert manifest["template_digests"]

        loaded = load_result_payload(run_dir / "pair-0.json")
        assert loaded.pair_id == "pair-0"
        assert loaded.verdicts == outcome.results[0].verdicts
        assert loaded.plan == outcome.results[0].plan
        assert loaded.evidence == evidence
        both = load_run_results(run_dir)
        assert [r.pair_id for r in both] == ["pair-0", "pair-1"]
        assert [(r.verdicts, r.plan, r.evidence) for r in both] == [
            (r.verdicts, r.plan, r.evidence) for r in outcome.results]

    def test_errors_json_keeps_the_failed_pairs_trace(self, tmp_path):
        # No verification rule: the pair fails after its formulation calls.
        gateway = table_gateway([
            ("object extractor", '{"claim1":"none"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
        ])
        outcome = run_batch(_simple_pairs(1), DetectionMethod.UNIHD, _backends(), gateway)
        run_dir = write_run_dir(tmp_path, "failed", outcome, DetectionMethod.UNIHD, {})
        [error] = json.loads((run_dir / "errors.json").read_text())
        assert error["pair_id"] == "pair-0"
        assert error["error_type"] == "AssertionError"
        stages = [record["stage"] for record in error["trace"]]
        assert stages == ["model:query-formulate"] * 4

    def test_existing_run_dir_rejected(self, tmp_path):
        outcome = run_batch([], DetectionMethod.UNIHD, _backends(), table_gateway([]))
        write_run_dir(tmp_path, "dup", outcome, DetectionMethod.UNIHD, {})
        with pytest.raises(FileExistsError):
            write_run_dir(tmp_path, "dup", outcome, DetectionMethod.UNIHD, {})

    def _edge_case_result(self):
        box = NormBox(0.1, 0.2, 0.5, 0.6)
        return DetectionResult(
            "p1", DetectionMethod.UNIHD, (Verdict(1, Label.HALLUCINATORY, "r"),),
            ToolPlan((ClaimQueries(object_labels=("dog",),
                                   fact_questions=("Where is Huawei based?",)),)),
            EvidenceBundle(objects=(ObjectEvidence("dog", box),),
                           facts=(FactEvidence("Where is Huawei based?", ("Shenzhen",)),)),
            False, ())

    @pytest.mark.parametrize("edit, pointer, message", [
        pytest.param(lambda p: p["verdicts"][0].update(claim_index=True),
                     "/verdicts/0/claim_index", "expected an integer", id="claim-index-true"),
        pytest.param(lambda p: p["verdicts"][0].update(rationale=None),
                     "/verdicts/0/rationale", "expected a string", id="rationale-null"),
        pytest.param(lambda p: p.update(degraded="no"),
                     "/degraded", "expected a boolean", id="degraded-string"),
        pytest.param(lambda p: p["evidence"]["objects"][0].update(label=None),
                     "/evidence/objects/0/label", "expected a string", id="label-null"),
        pytest.param(lambda p: p["evidence"]["objects"][0]["box"].update(x1=True),
                     "/evidence/objects/0/box/x1", "expected a number",
                     id="box-coordinate-true"),
        pytest.param(lambda p: p["evidence"]["facts"][0].update(snippets="Shenzhen"),
                     "/evidence/facts/0/snippets", "expected a list", id="snippets-string"),
        pytest.param(lambda p: p["plan"]["claim1"].update(object_labels="dog"),
                     "/plan/claim1/object_labels", "expected a list", id="plan-labels-string"),
        pytest.param(lambda p: p["evidence"].pop("objects"),
                     "/evidence/objects", "expected a list", id="objects-missing"),
        pytest.param(lambda p: p.pop("plan"),
                     "/plan", "expected an object or null", id="plan-missing"),
        pytest.param(lambda p: p["verdicts"][0].pop("parse_flags"),
                     "/verdicts/0/parse_flags", "expected a list", id="parse-flags-missing"),
        pytest.param(lambda p: p.update(extra=1),
                     "/extra", "unknown key", id="result-extra-key"),
        pytest.param(lambda p: p["plan"]["claim1"].update(extra=1),
                     "/plan/claim1/extra", "unknown key", id="plan-claim-extra-key"),
        pytest.param(lambda p: p["evidence"]["objects"][0].update(extra=1),
                     "/evidence/objects/0/extra", "unknown key", id="object-extra-key"),
        pytest.param(lambda p: p["evidence"]["objects"][0]["box"].update(x3=0.9),
                     "/evidence/objects/0/box/x3", "unknown key", id="box-extra-key"),
        pytest.param(lambda p: p["evidence"].update(extra=[]),
                     "/evidence/extra", "unknown key", id="evidence-extra-key"),
        pytest.param(lambda p: p["verdicts"][0].update(extra=1),
                     "/verdicts/0/extra", "unknown key", id="verdict-extra-key"),
    ])
    def test_a_value_of_the_wrong_type_is_rejected(self, tmp_path, edit, pointer, message):
        result = self._edge_case_result()
        run_dir = write_run_dir(tmp_path, "run", BatchOutcome([result], []),
                                DetectionMethod.UNIHD, {})
        assert load_run_results(run_dir) == [result]
        path = run_dir / "p1.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ResultFileInvalid) as exc_info:
            load_run_results(run_dir)
        assert exc_info.value.path == str(path)
        assert str(exc_info.value) == f"{path}: {pointer}: {message}"

    @pytest.mark.parametrize("edit, pointer, message", [
        (lambda p: p["plan"].update(claim3=p["plan"].pop("claim1")), "/plan/claim3",
         "unknown key"),
        (lambda p: p["evidence"]["objects"].append(
            {"kind": "scene-text", "text": "x", "box": p["evidence"]["objects"][0]["box"]}),
         "/evidence/objects/1/kind", "expected kind 'object', got 'scene-text'"),
        (lambda p: p["verdicts"][0].update(claim_index=0), "/verdicts/0",
         "claim_index must be >= 1, got 0"),
        (lambda p: p["verdicts"][0].update(parse_flags=["repaired", "fixed"]),
         "/verdicts/0/parse_flags/1", "'fixed' is not one of ['repaired', 'unverified']"),
        (lambda p: p.update(pair_id="p/1~"), None, "holds pair 'p/1~'"),
        (lambda p: p.clear(), "/plan", "expected an object or null"),
    ], ids=["plan-skips-a-claim", "item-of-another-family", "verdict-invariant",
            "unknown-parse-flag", "another-pair", "empty-object"])
    def test_every_decode_error_names_its_pointer(self, tmp_path, edit, pointer, message):
        result = self._edge_case_result()
        run_dir = write_run_dir(tmp_path, "run", BatchOutcome([result], []),
                                DetectionMethod.UNIHD, {})
        path = run_dir / "p1.json"
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(ResultFileInvalid) as exc_info:
            load_run_results(run_dir)
        where = message if pointer is None else f"{pointer}: {message}"
        assert str(exc_info.value) == f"{path}: {where}"

    def test_a_file_that_is_not_json_is_rejected(self, tmp_path):
        path = tmp_path / "p1.json"
        path.write_text("{")
        with pytest.raises(ResultFileInvalid) as exc_info:
            load_result_payload(path)
        assert str(exc_info.value).startswith(f"{path}: Expecting property name")


    def test_a_file_nested_too_deeply_is_rejected(self, tmp_path):
        path = tmp_path / "p1.json"
        path.write_text("[" * 5000)
        with pytest.raises(ResultFileInvalid) as exc_info:
            load_result_payload(path)
        assert str(exc_info.value).startswith(f"{path}: maximum recursion depth")


# --- call scheduling ---------------------------------------------------------------


class _Clock:
    """Records each backend call as (name, start, end) and what is in flight."""

    def __init__(self):
        self.calls = []
        self.in_flight = 0
        self._lock = threading.Lock()

    def run(self, name, delay, fn):
        with self._lock:
            self.in_flight += 1
            started = time.monotonic()
        try:
            time.sleep(delay)
            return fn()
        finally:
            with self._lock:
                self.in_flight -= 1
                self.calls.append((name, started, time.monotonic()))

    def started(self, name):
        return [s for n, s, _ in self.calls if n == name]

    def ended(self, name):
        return [e for n, _, e in self.calls if n == name]


class _TimedModel:
    """Routes replies by prompt substring, like TableBackend, with a delay per rule."""

    backend_id = "timed-model"

    def __init__(self, rules, clock):
        self.rules = rules  # (marker, name, delay, reply)
        self.clock = clock

    def invoke(self, request):
        for marker, name, delay, reply in self.rules:
            if marker in request.prompt.user or marker in request.prompt.system:
                return self.clock.run(name, delay, lambda reply=reply: reply)
        raise AssertionError(f"no rule matched prompt: {request.prompt.user[:100]!r}")


def _timed_backends(clock, delay=0.02, search_error=None, read_error=None):
    class Detector(CountingDetector):
        def detect(self, image, labels):
            return clock.run("detect", delay, lambda: super(Detector, self).detect(image, labels))

    class Reader(CountingReader):
        def read(self, image):
            def run():
                if read_error is not None:
                    raise read_error
                return super(Reader, self).read(image)
            return clock.run("read", delay, run)

    class Searcher(CountingSearcher):
        def search(self, question, top_k):
            def run():
                if search_error is not None:
                    raise search_error
                return super(Searcher, self).search(question, top_k)
            return clock.run("search", delay, run)

    class Answerer(CountingAnswerer):
        def answer(self, image, question):
            return clock.run("answer", delay, lambda: super(Answerer, self).answer(image, question))

    return ToolBackendSet(
        object_detector=Detector(_ATHLETE_DETECTIONS),
        attribute_answerer=Answerer(),
        scene_text_reader=Reader([SceneTextEvidence("GO", NormBox(0.1, 0.1, 0.2, 0.2))]),
        fact_searcher=Searcher([FactSnippet("t", "s", "https://a")]),
    )


_VERDICT = json.dumps([{"claim1": "non-hallucination", "reason": "consistent"}])


def _timed_rules(object_q=0.02, scene_q=0.02, attribute_q=0.02,
                 scene_reply='{"claim1":["What does the sign say?"]}'):
    return [
        ("object extractor", "q:object", object_q, '{"claim1":"athlete.uniform"}'),
        ("questions about attributes", "q:attribute", attribute_q,
         '{"claim1":["What color is the uniform?"]}'),
        ("questions about scene text", "q:scene", scene_q, scene_reply),
        ("search engine questions", "q:fact", 0.02, '{"claim1":["Who makes the uniform?"]}'),
        ("hallucination judger", "verify", 0.0, _VERDICT),
    ]


def _timed_gateway(rules, clock):
    return ModelGateway(_TimedModel(rules, clock), sleep=lambda _: None)


class TestCallScheduling:
    def test_each_call_starts_when_its_reply_lands(self):
        clock = _Clock()
        result = run_detection(
            _athlete_pair(), DetectionMethod.UNIHD, _timed_backends(clock),
            _timed_gateway(_timed_rules(attribute_q=0.3), clock),
        )
        assert not result.degraded
        (attribute_query_end,) = clock.ended("q:attribute")
        for tool in ("detect", "read", "search"):
            (started,) = clock.started(tool)
            assert started < attribute_query_end, tool
        (answer_start,) = clock.started("answer")
        assert answer_start >= attribute_query_end
        tools_end = max(e for n, _, e in clock.calls if n in ("detect", "read", "search", "answer"))
        (verify_start,) = clock.started("verify")
        assert verify_start >= tools_end

    def test_merge_is_positional_whatever_lands_first(self):
        dumps = []
        for slow in ("q:object", "q:scene", "q:fact", "q:attribute"):
            clock = _Clock()
            rules = [(m, n, 0.1 if n == slow else 0.0, r) for m, n, _, r in _timed_rules()]
            result = run_detection(_athlete_pair(), DetectionMethod.UNIHD,
                                   _timed_backends(clock, delay=0.0),
                                   _timed_gateway(rules, clock))
            dumps.append(json.dumps(result.payload_json(), sort_keys=True))
        assert len(set(dumps)) == 1

    def test_threads_bounded_by_run_not_by_pairs(self, monkeypatch):
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        gateway = table_gateway([
            ("object extractor", '{"claim1":"thing"}'),
            ("questions about attributes", '{"claim1":["What color is it?"]}'),
            ("questions about scene text", '{"claim1":["What does it say?"]}'),
            ("search engine questions", '{"claim1":["Who made it?"]}'),
            ("hallucination judger", _VERDICT),
        ])
        backends = _backends(detections=_ATHLETE_DETECTIONS)
        width = 2
        outcome = run_batch(_simple_pairs(40), DetectionMethod.UNIHD, backends, gateway,
                            width=width)
        assert not outcome.failures
        assert _tool_calls(backends) == 40 * 4
        assert len(started) <= width + width * 10

    def test_a_batch_leaves_no_reference_cycles(self):
        # A cycle keeps each pair's calls, replies and evidence alive until
        # the collector runs, which costs CPU and memory on every batch. A
        # failed pair's error, whose traceback holds its calls, ties none.
        for shaker, failed in ((None, 0), (_SearchDown(), 2)):
            _scenario_run(None, shaker)
            gc.collect()
            gc.disable()
            try:
                assert len(_scenario_run(None, shaker).failures) == failed
                assert gc.collect() == 0
            finally:
                gc.enable()

    def test_pair_settles_every_call_before_raising(self):
        clock = _Clock()
        backends = _timed_backends(clock, delay=0.15, search_error=RuntimeError("search down"))
        with pytest.raises(RuntimeError, match="search down") as exc_info:
            run_detection(_athlete_pair(), DetectionMethod.UNIHD, backends,
                          _timed_gateway(_timed_rules(), clock))
        # The pair's own error, traceback and all.
        assert "evidence" in {entry.name for entry in exc_info.traceback}
        assert clock.in_flight == 0
        assert {n for n, _, _ in clock.calls} >= {"detect", "read", "search", "answer"}

    def test_an_in_place_tool_error_fails_the_pair_after_every_call_settles(self):
        # The scene-text read runs in the scene-text chain's own thread; its
        # error must land in its evidence slot, not pass for a formulation
        # error, and surface only once the other tool calls have settled.
        clock = _Clock()
        backends = _timed_backends(clock, delay=0.15,
                                   read_error=InvalidImage("unreadable image"))
        with pytest.raises(InvalidImage, match="unreadable image") as exc_info:
            run_detection(_athlete_pair(), DetectionMethod.UNIHD, backends,
                          _timed_gateway(_timed_rules(scene_q=0.0), clock))
        assert not hasattr(exc_info.value, "template_id")
        assert clock.in_flight == 0
        (read_end,) = clock.ended("read")
        (answer_end,) = clock.ended("answer")
        assert answer_end > read_end
        assert {n for n, _, _ in clock.calls} >= {"detect", "read", "search", "answer"}
        assert not clock.started("verify")

    def test_pair_settles_every_call_after_a_formulation_error(self):
        clock = _Clock()
        rules = _timed_rules(object_q=0.0, scene_q=0.15, attribute_q=0.2,
                             scene_reply="not parseable at all")
        with pytest.raises(UnparseableModelOutput) as exc_info:
            run_detection(_athlete_pair(), DetectionMethod.UNIHD,
                          _timed_backends(clock, delay=0.2), _timed_gateway(rules, clock))
        assert exc_info.value.template_id is TemplateId.SCENE_TEXT_QUERY
        assert clock.in_flight == 0
        # Object detection started on the object reply before scene text failed.
        assert clock.started("detect")
        assert not clock.started("verify")


class _PairsInFlight:
    """Backend doubles that record the most pairs ever with a call in flight.

    A model call is told to its pair by the claim text in its prompt, a
    detection by its image.
    """

    backend_id = "pairs-in-flight"

    def __init__(self, pairs, rules, delay=0.01):
        self.rules, self.delay = rules, delay
        self.ids = {pair.image.digest: pair.id for pair in pairs}
        self.calls = collections.Counter()
        self.peak = 0
        self._lock = threading.Lock()

    def _run(self, pair_id, reply):
        with self._lock:
            self.calls[pair_id] += 1
            self.peak = max(self.peak, len(+self.calls))
        try:
            time.sleep(self.delay)
            return reply
        finally:
            with self._lock:
                self.calls[pair_id] -= 1

    def invoke(self, request):
        prompt = request.prompt.system + request.prompt.user
        [number] = set(re.findall(r"claimable thing (\d+)", prompt))
        return self._run(f"pair-{number}",
                         next(reply for marker, reply in self.rules if marker in prompt))

    def detect(self, image, labels):
        return self._run(self.ids[image.digest], list(_ATHLETE_DETECTIONS))


class TestPairsInFlight:
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_width_caps_the_pairs_in_flight(self, width):
        pairs = _simple_pairs(10)
        flight = _PairsInFlight(pairs, [
            ("object extractor", '{"claim1":"athlete"}'),
            ("questions about attributes", '{"claim1":["none"]}'),
            ("questions about scene text", '{"claim1":["none"]}'),
            ("search engine questions", '{"claim1":["none"]}'),
            ("hallucination judger", _VERDICT),
        ])
        backends = _backends()
        backends.object_detector = flight
        outcome = run_batch(pairs, DetectionMethod.UNIHD, backends,
                            ModelGateway(flight, sleep=lambda _: None), width=width)
        assert not outcome.failures
        assert not +flight.calls
        assert flight.peak == width

    def test_a_wide_batch_finishes_under_frequent_thread_switches(self):
        # A lost update to a pair's task count or the batch's count of
        # finished pairs would hang the batch or return it early.
        pairs = _simple_pairs(40)
        backends = _backends(detections=_ATHLETE_DETECTIONS)
        gateway = table_gateway([
            ("object extractor", '{"claim1":"thing"}'),
            ("questions about attributes", '{"claim1":["What color is it?"]}'),
            ("questions about scene text", '{"claim1":["What does it say?"]}'),
            ("search engine questions", '{"claim1":["Who made it?"]}'),
            ("hallucination judger", _VERDICT),
        ])
        outcomes = []
        worker = threading.Thread(daemon=True, target=lambda: outcomes.append(
            run_batch(pairs, DetectionMethod.UNIHD, backends, gateway, width=8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        [outcome] = outcomes
        assert not outcome.failures
        assert [r.pair_id for r in outcome.results] == [pair.id for pair in pairs]
        assert _tool_calls(backends) == 40 * 4


class TestFormulationErrorOrder:
    @pytest.mark.parametrize("failing, surfaced", [
        (("q:object", "q:scene", "q:fact"), TemplateId.OBJECT_QUERY),
        (("q:scene", "q:fact", "q:attribute"), TemplateId.SCENE_TEXT_QUERY),
        (("q:scene", "q:attribute"), TemplateId.SCENE_TEXT_QUERY),
        (("q:fact", "q:attribute"), TemplateId.FACT_QUERY),
        (("q:attribute",), TemplateId.ATTRIBUTE_QUERY),
    ])
    def test_errors_surface_in_fixed_order(self, failing, surfaced):
        # Later templates fail first, so completion order is the reverse of
        # the order errors must surface in.
        delays = {"q:object": 0.0, "q:scene": 0.12, "q:fact": 0.06, "q:attribute": 0.0}
        rules = [
            (marker, name, delays.get(name, 0.0),
             "not parseable at all" if name in failing else reply)
            for marker, name, _, reply in _timed_rules()
        ]
        clock = _Clock()
        with pytest.raises(UnparseableModelOutput) as exc_info:
            run_detection(_athlete_pair(), DetectionMethod.UNIHD, _timed_backends(clock),
                          _timed_gateway(rules, clock))
        assert exc_info.value.template_id is surfaced
        assert clock.in_flight == 0

    def test_replies_after_a_failure_are_not_handed_on(self):
        rules = [
            (marker, name, 0.3 if name == "q:object" else 0.0,
             "not parseable at all" if name == "q:fact" else reply)
            for marker, name, _, reply in _timed_rules()
        ]
        clock = _Clock()
        with pytest.raises(UnparseableModelOutput):
            run_detection(_athlete_pair(), DetectionMethod.UNIHD, _timed_backends(clock),
                          _timed_gateway(rules, clock))
        assert clock.ended("q:object")
        assert not clock.started("detect")
        assert not clock.started("q:attribute")


# --- verification retry with a cache ---------------------------------------------------


class _ScriptedVerifier:
    """Formulation by table; verification replies taken from a script in turn."""

    backend_id = "scripted"

    def __init__(self, script):
        self.table = table_gateway(_ATHLETE_RULES[:4]).backend
        self.script = list(script)
        self.calls = 0

    def invoke(self, request):
        self.calls += 1
        if "hallucination judger" in request.prompt.user + request.prompt.system:
            return self.script.pop(0)
        return self.table.invoke(request)


class TestVerificationRetryWithCache:
    def _run(self, cache, backend):
        return run_detection(_athlete_pair(), DetectionMethod.UNIHD,
                             _backends(detections=_ATHLETE_DETECTIONS),
                             ModelGateway(backend, sleep=lambda _: None), cache=cache)

    def test_retry_reaches_backend_and_cache_keeps_its_reply(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        valid = _ATHLETE_RULES[4][1]
        cold_backend = _ScriptedVerifier(["garbage that never parses", valid])
        cold = self._run(cache, cold_backend)
        assert not cold.degraded
        assert len(cold_backend.script) == 0  # both scripted replies were asked for
        assert cold_backend.calls == 4 + 2

        warm_backend = _ScriptedVerifier([])
        warm = self._run(cache, warm_backend)
        assert warm_backend.calls == 0

        files = []
        for run_id, result in (("cold", cold), ("warm", warm)):
            outcome = BatchOutcome(results=[result], failures=[])
            run_dir = write_run_dir(tmp_path, run_id, outcome, DetectionMethod.UNIHD, {})
            files.append((run_dir / "athlete.json").read_bytes())
        assert files[0] == files[1]


# --- completion-order shaker ---------------------------------------------------------


class _Shaker:
    """Delays every backend call by a seeded 0-5 ms and counts calls per family.

    A call's delay depends only on the seed and the call's arguments, so a
    seed fixes the delays whatever order the calls start in.
    """

    def __init__(self, seed):
        self.seed = seed
        self.counts = collections.Counter()
        self._lock = threading.Lock()

    def wrap(self, backend, method):
        call = getattr(backend, method)

        def shaken(*args):
            time.sleep(random.Random(f"{self.seed}|{method}|{args!r}").uniform(0, 0.005))
            with self._lock:
                self.counts[method] += 1
            return call(*args)

        return types.SimpleNamespace(backend_id=backend.backend_id, **{method: shaken})


class _SearchDown:
    """Fails every fact search, and so the scenario's two pairs that search."""

    @staticmethod
    def wrap(backend, method):
        if method != "search":
            return backend

        def search(question, top_k):
            raise RuntimeError("search down")

        return types.SimpleNamespace(backend_id=backend.backend_id, search=search)


def _scenario_run(cache, shaker=None):
    """The six-pair scenario through ``run_batch`` at width 4, optionally shaken."""
    wrap = shaker.wrap if shaker is not None else lambda backend, method: backend
    scripts = e2e_scenario.build_scripts()
    backends = ToolBackendSet(
        object_detector=wrap(e2e_scenario.RecordingDetector(scripts), "detect"),
        attribute_answerer=wrap(e2e_scenario.RecordingAnswerer(scripts), "answer"),
        scene_text_reader=wrap(e2e_scenario.RecordingReader(scripts), "read"),
        fact_searcher=wrap(e2e_scenario.RecordingSearcher(scripts), "search"),
    )
    model = wrap(e2e_scenario.RecordingModelBackend(scripts), "invoke")
    return run_batch([s.pair for s in scripts], DetectionMethod.UNIHD, backends,
                     ModelGateway(model, sleep=lambda _: None), cache=cache, width=4)


def _payloads(outcome):
    return [json.dumps(r.payload_json(), ensure_ascii=False, indent=2, sort_keys=True)
            for r in outcome.results]


class TestCompletionOrderShaker:
    def _run(self, shaker, cache):
        outcome = _scenario_run(cache, shaker)
        assert not outcome.failures
        return _payloads(outcome)

    def test_payloads_and_call_counts_ignore_completion_order(self, tmp_path):
        runs = []
        for seed in range(20):
            shaker = _Shaker(seed)
            payloads = self._run(shaker, DiskCache(tmp_path / f"cache-{seed}"))
            runs.append((payloads, dict(shaker.counts)))
        payloads, counts = runs[0]
        assert len(payloads) == 6
        assert set(counts) == {"invoke", "detect", "answer", "read", "search"}
        for seed, run in enumerate(runs):
            assert run == (payloads, counts), f"seed {seed}"


# --- trace records --------------------------------------------------------------------


class TestTraceRecords:
    def test_cold_and_warm_records_are_pinned(self, tmp_path):
        cache = DiskCache(tmp_path / "cache")
        records = []
        for _ in ("cold", "warm"):
            result = run_detection(_athlete_pair(), DetectionMethod.UNIHD,
                                   _backends(detections=_ATHLETE_DETECTIONS),
                                   table_gateway(_ATHLETE_RULES), cache=cache)
            records.append([(r.stage, r.input_digest, r.output_digest, r.cache_hit)
                            for r in result.trace])
        assert records == [[(*r, False) for r in _PINNED_TRACE],
                           [(*r, True) for r in _PINNED_TRACE]]


# (stage, input digest, output digest): the request digest and the reply's
# sha256_text for a model call, the CacheKey digest and the stored value's
# sha256_json for a tool call.
_PINNED_TRACE = [
    ("model:query-formulate",
     "5560e2e8229486ca6c1e7373a0796a7ecb58ff2744be37a5a9a06a0db8dd7892",
     "9e33bbe097b83c5562a1d63c251bcfa8a81f3e517f1addab56235100e4eda10d"),
    ("model:query-formulate",
     "7a257d00d3c21db02a96ee2b93b7ecb801c7a21fb26dc09fa17fdd60c70909bb",
     "2edb6cf03f3004ee4105167a1440dadb15e02b45e66b4b4c873aeef3e9844229"),
    ("model:query-formulate",
     "91c18f8fea47d718baac8fa13ab5b2377dee413e804abcbbcbdf8e8b15c66c59",
     "ddbe6cd1379dddebd3b6d121c57634911c3bcd5acb1857c1e6d216aa40331469"),
    ("model:query-formulate",
     "a84a33a7b864954b23342958fe07e681a0471896fce2c4cff61df1f699cf2368",
     "9e33bbe097b83c5562a1d63c251bcfa8a81f3e517f1addab56235100e4eda10d"),
    ("model:verify",
     "40f535492afec2ca0b2cbd759088501062a6d69a69d46d83de837b86291b0b27",
     "75294aa65a0253f920fcd69721c8a23cae98ffb9e1b839841875531bac1deb0d"),
    ("tool:attribute",
     "4565dcdfedb465340283e348cf98feee41a7f9876b6da4216bef2f5c3621e5ac",
     "3e3c755777fe239c0491629fbb1d975da96af9176d83b6b878ed97c9bbb6a323"),
    ("tool:object-detect",
     "8f221a5f0752e19b3325a887a2826f54aac2679e1b2d5bc67e0c98858732b1e5",
     "f9c797fd369e259d0cba1a4aa8b442523fcd630d986aa31b4394e5c20a192732"),
]


# --- retries on every family ---------------------------------------------------------


class _FlakyDetector(CountingDetector):
    """Raises BackendUnavailable the given number of times per pair, then detects."""

    def __init__(self, items, failures):
        super().__init__(items)
        self.failures = {image_ref(pair_id).digest: n for pair_id, n in failures.items()}

    def detect(self, image, labels):
        if self.failures.get(image.digest):
            self.failures[image.digest] -= 1
            self.calls += 1
            raise BackendUnavailable("detector blip")
        return super().detect(image, labels)


class _FlakyVerifier(TableBackend):
    """Raises BackendUnavailable at the first ``failures`` verification requests."""

    def __init__(self, rules, failures):
        super().__init__(rules)
        self.failures = failures

    def invoke(self, request):
        if request.purpose_tag is PurposeTag.VERIFY and self.failures:
            self.failures -= 1
            raise BackendUnavailable("model blip")
        return super().invoke(request)


class TestRetryOnEveryFamily:
    def test_a_tool_call_heals_on_the_model_schedule(self, monkeypatch):
        monkeypatch.setattr("halodet.executor.random.uniform", lambda low, high: 0.0)
        clean = run_detection(_athlete_pair(), DetectionMethod.UNIHD,
                              _backends(detections=_ATHLETE_DETECTIONS),
                              table_gateway(_ATHLETE_RULES))
        delays = []
        backends = _backends()
        backends.object_detector = _FlakyDetector(_ATHLETE_DETECTIONS, {"athlete": 2})
        result = run_detection(_athlete_pair(), DetectionMethod.UNIHD, backends,
                               ModelGateway(TableBackend(_ATHLETE_RULES), sleep=delays.append))
        assert delays == [1.0, 2.0]
        assert backends.object_detector.calls == 3
        assert result.payload_json() == clean.payload_json()

    def test_run_files_pin_the_attempts_of_every_call(self, tmp_path):
        # athlete: its verification is retried once and its detection twice.
        # down: the same text on another image, so its formulation replies
        # are cache hits; its detection never heals, so the pair fails.
        cache = DiskCache(tmp_path / "cache")
        pairs = [_athlete_pair(), _athlete_pair("down")]
        runs = []
        for name in ("cold", "warm"):
            backends = _backends()
            backends.object_detector = _FlakyDetector(_ATHLETE_DETECTIONS,
                                                      {"athlete": 2, "down": 3})
            gateway = ModelGateway(_FlakyVerifier(_ATHLETE_RULES, failures=1),
                                   sleep=lambda _: None)
            outcome = run_batch(pairs, DetectionMethod.UNIHD, backends, gateway,
                                cache=cache, width=1)
            run_dir = write_run_dir(tmp_path, name, outcome, DetectionMethod.UNIHD, {})
            traces = json.loads((run_dir / "manifest.json").read_text())["traces"]
            [error] = json.loads((run_dir / "errors.json").read_text())
            assert (error["pair_id"], error["error_type"]) == ("down", "BackendUnavailable")
            assert error["message"] == ("counting-detector failed after 3 attempts: "
                                        "detector blip")
            runs.append([[(r["stage"], r["cache_hit"], r["attempts"]) for r in trace]
                         for trace in (traces["athlete"], error["trace"])])
        assert runs[0] == [
            [*[("model:query-formulate", False, 1)] * 4, ("model:verify", False, 2),
             ("tool:attribute", False, 1), ("tool:object-detect", False, 3)],
            [*[("model:query-formulate", True, 0)] * 4, ("tool:attribute", False, 1)],
        ]
        assert runs[1] == [[(stage, True, 0) for stage, _, _ in trace] for trace in runs[0]]
        # One put per reply, after the attempt that succeeded.
        assert len(store_records.records(tmp_path / "cache")) == 7 + 1


# --- pool submissions -------------------------------------------------------------------


class TestPoolSubmissions:
    def test_each_pair_is_submitted_once_and_no_call_carries_one(self, monkeypatch):
        # The benchmark attributes a span to a pair by the pair argument of a
        # submit, so a pair's first task carries it and no call task may.
        original = ThreadPoolExecutor.submit
        submits = []

        def recording_submit(pool, fn, /, *args, **kwargs):
            submits.append([a for a in (*args, *kwargs.values())
                            if isinstance(a, ImageTextPair)])
            return original(pool, fn, *args, **kwargs)

        monkeypatch.setattr(ThreadPoolExecutor, "submit", recording_submit)
        gateway = table_gateway([
            ("object extractor", '{"claim1":"thing"}'),
            ("questions about attributes", '{"claim1":["What color is it?"]}'),
            ("questions about scene text", '{"claim1":["What does it say?"]}'),
            ("search engine questions", '{"claim1":["Who made it?"]}'),
            ("hallucination judger", _VERDICT),
        ])
        pairs = _simple_pairs(5)
        outcome = run_batch(pairs, DetectionMethod.UNIHD,
                            _backends(detections=_ATHLETE_DETECTIONS), gateway, width=2)
        assert not outcome.failures
        # Each pair once, alone in its submit; a call task that carried a
        # pair would show up here as a second submit of it.
        handed = [carried for carried in submits if carried]
        assert sorted(pair.id for [pair] in handed) == [pair.id for pair in pairs]
        calls = [carried for carried in submits if not carried]
        # Per pair, all of each task list but its last: the scene-text and
        # fact formulations, object detection (its list ends with the
        # attribute formulation), and every distinct attribute or fact
        # question but the last. The scene-text read is alone in its list.
        pooled = 0
        for result in outcome.results:
            claims = result.plan.per_claim
            labels = {label for c in claims for label in c.object_labels}
            attributes = {q for c in claims for q in c.attribute_questions}
            facts = {q for c in claims for q in c.fact_questions}
            pooled += 2 + bool(labels) + max(len(attributes) - 1, 0) + max(len(facts) - 1, 0)
        assert pooled == len(pairs) * 3
        assert len(calls) == pooled


# --- generated formulation replies ------------------------------------------------------

_MARKERS = {
    "object": "object extractor",
    "attribute": "questions about attributes",
    "scene": "questions about scene text",
    "fact": "search engine questions",
}
# Mixed-case duplicates of two labels, so deduplication has work to do.
_LABELS = ("Dog", "dog", "DOG", "cat", "Cat")


def _entry(items):
    # Every shape a claim's entry may take: "none" bare or listed, an empty
    # list, or a list drawn from a small pool, so items repeat across claims.
    return st.one_of(st.just("none"), st.just(["none"]), st.just([]),
                     st.lists(st.sampled_from(items), min_size=1, max_size=3))


@st.composite
def _generated_pair(draw, position):
    n = draw(st.integers(1, 4))
    pool = [f"Question {q} about pair-{position}?" for q in range(3)]
    replies = {}
    for kind in _MARKERS:
        entries = [draw(_entry(_LABELS if kind == "object" else pool)) for _ in range(n)]
        if kind == "object":
            entries = [e if isinstance(e, str) or e == ["none"] else ".".join(e)
                       for e in entries]
        replies[kind] = json.dumps({f"claim{k}": e for k, e in enumerate(entries, 1)})
    replies["verify"] = json.dumps([{f"claim{k}": "non-hallucination", "reason": "ok"}
                                    for k in range(1, n + 1)])
    pair = ImageTextPair(
        id=f"pair-{position}", task=TaskType.IMAGE_CAPTIONING,
        image=image_ref(f"pair-{position}"), text=f"Text of pair-{position}.",
        claims=tuple(Claim(index=k, text=f"Claim {k} of pair-{position}.")
                     for k in range(1, n + 1)),
    )
    return pair, replies


class _GeneratedModel:
    """Replies from the generated table, routed by pair and template."""

    backend_id = "generated-model"

    def __init__(self, generated):
        self.generated = generated

    def invoke(self, request):
        prompt = request.prompt.system + request.prompt.user
        pair, replies = next((p, r) for p, r in self.generated if f"of {p.id}." in prompt)
        if "hallucination judger" in prompt:
            return replies["verify"]
        return next(replies[kind] for kind, marker in _MARKERS.items() if marker in prompt)


class _CountingTools:
    """Tool doubles that count each call by its arguments."""

    backend_id = "counting-tools"

    def __init__(self):
        self.calls = collections.Counter()

    def detect(self, image, labels):
        self.calls["detect", image.digest] += 1
        return [ObjectEvidence(label, NormBox(0.1, 0.1, 0.5, 0.5)) for label in ("dog", "cat")]

    def read(self, image):
        self.calls["read", image.digest] += 1
        return [SceneTextEvidence("GO", NormBox(0.1, 0.1, 0.2, 0.2))]

    def answer(self, image, question):
        from halodet.model import AttributeEvidence

        self.calls["answer", image.digest, question] += 1
        return AttributeEvidence(question=question, answer=f"Answer to {question}")

    def search(self, question, top_k):
        self.calls["search", question] += 1
        return [FactSnippet("Title", f"About {question}", "https://example.org")]


class TestGeneratedReplies:
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(generated=st.integers(1, 3).flatmap(
               lambda n: st.tuples(*(_generated_pair(i) for i in range(n)))),
           width=st.integers(1, 4), seed=st.integers(0, 2**16))
    def test_plans_evidence_and_calls_match_the_sequential_reference(
            self, generated, width, seed):
        shaker, tools = _Shaker(seed), _CountingTools()
        backends = ToolBackendSet(
            object_detector=shaker.wrap(tools, "detect"),
            attribute_answerer=shaker.wrap(tools, "answer"),
            scene_text_reader=shaker.wrap(tools, "read"),
            fact_searcher=shaker.wrap(tools, "search"),
        )
        model = _GeneratedModel(generated)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches, so races show
        try:
            outcome = run_batch([pair for pair, _ in generated], DetectionMethod.UNIHD,
                                backends, ModelGateway(shaker.wrap(model, "invoke")),
                                width=width)
        finally:
            sys.setswitchinterval(interval)
        assert not outcome.failures

        expected = collections.Counter()
        for (pair, _), result in zip(generated, outcome.results):
            plan = formulate_queries(pair, ModelGateway(model))
            assert result.plan == plan
            claims = plan.per_claim
            attributes = [q for c in claims for q in c.attribute_questions]
            facts = [q for c in claims for q in c.fact_questions]
            labels = {label for c in claims for label in c.object_labels}
            assert [e.question for e in result.evidence.attributes] == attributes
            assert [e.question for e in result.evidence.facts] == facts
            assert {e.label for e in result.evidence.objects} == labels
            reads = any(c.scene_text_questions for c in claims)
            assert bool(result.evidence.scene_texts) == reads
            digest = pair.image.digest
            expected.update({("detect", digest): 1} if labels else {})
            expected.update({("read", digest): 1} if reads else {})
            expected.update(("answer", digest, q) for q in set(attributes))
            expected.update(("search", q) for q in set(facts))
        assert tools.calls == expected
