"""Benchmark loading, schema enforcement, stats, and result alignment."""

from __future__ import annotations

import json

import pytest

from conftest import image_ref
from halodet.bench import (
    BenchmarkFile,
    convert_predictions,
    load,
    save,
    schema_document,
    stats,
)
from halodet.errors import (
    IndexMismatch,
    MissingPrediction,
    SchemaViolation,
    UnsupportedVersion,
)
from halodet.executor import DetectionResult
from halodet.model import (
    Claim,
    EvidenceBundle,
    HallucinationCategory,
    ImageTextPair,
    Label,
    ParseFlag,
    Segment,
    TaskType,
    Verdict,
)
from halodet.stages import DetectionMethod

H = Label.HALLUCINATORY
NH = Label.NON_HALLUCINATORY


def _bench_pair(pair_id: str, labels: list[Label],
                task: TaskType = TaskType.IMAGE_CAPTIONING,
                segmented: bool = True) -> ImageTextPair:
    claims = tuple(
        Claim(
            index=i, text=f"{pair_id} claim {i}", gold_label=label,
            gold_categories=(frozenset({HallucinationCategory.OBJECT})
                             if label is H else None),
            segment_id=f"S{i}" if segmented else None,
        )
        for i, label in enumerate(labels, start=1)
    )
    segments = tuple(
        Segment(id=f"S{i}", text=f"{pair_id} segment {i}", claim_indices=(i,))
        for i in range(1, len(labels) + 1)
    ) if segmented else None
    return ImageTextPair(id=pair_id, task=task, image=image_ref(pair_id),
                         text=f"{pair_id} full text", claims=claims, segments=segments)


def _bench(pairs) -> BenchmarkFile:
    return BenchmarkFile(version="mhalubench.v1", pairs=tuple(pairs),
                         provenance={"source": "synthetic"})


def _result(pair: ImageTextPair, labels: list[Label]) -> DetectionResult:
    verdicts = tuple(
        Verdict(claim_index=i, label=label, rationale=f"judged {i}")
        for i, label in enumerate(labels, start=1)
    )
    return DetectionResult(pair_id=pair.id, method=DetectionMethod.UNIHD,
                           verdicts=verdicts, plan=None, evidence=EvidenceBundle(),
                           degraded=False, trace=())


class TestLoadAndSave:
    def test_round_trip(self, tmp_path):
        bench = _bench([_bench_pair("a", [H, NH]), _bench_pair("b", [NH])])
        path = tmp_path / "bench.json"
        save(bench, path)
        assert load(path) == bench
        save(load(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_text() == path.read_text()

    def test_valid_three_pair_file(self, tmp_path):
        bench = _bench([_bench_pair(f"p{i}", [H, NH]) for i in range(3)])
        path = tmp_path / "bench.json"
        save(bench, path)
        assert len(load(path).pairs) == 3

    def test_missing_gold_label(self, tmp_path):
        bench = _bench([_bench_pair("a", [H])])
        payload = bench.to_json()
        del payload["pairs"][0]["claims"][0]["gold_label"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert exc_info.value.path == "/pairs/0/claims/0/gold_label"

    def test_unknown_category_rejected(self, tmp_path):
        bench = _bench([_bench_pair("a", [H])])
        payload = bench.to_json()
        payload["pairs"][0]["claims"][0]["gold_categories"] = ["styles"]
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert "/gold_categories/0" in exc_info.value.path

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"version": "mhalubench.v999", "pairs": []}))
        with pytest.raises(UnsupportedVersion):
            load(path)

    def test_duplicate_pair_ids(self, tmp_path):
        bench = _bench([_bench_pair("a", [H])])
        payload = bench.to_json()
        payload["pairs"].append(payload["pairs"][0])
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert "duplicate pair id" in str(exc_info.value)

    @pytest.mark.parametrize("pair_id", ["errors", "manifest", "../up", "a b", "a\n", ""])
    def test_pair_id_must_name_a_result_file(self, tmp_path, pair_id):
        payload = _bench([_bench_pair("a", [H])]).to_json()
        payload["pairs"][0]["id"] = pair_id
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert exc_info.value.path == "/pairs/0/id"

    def test_structural_violation_gets_pointer_path(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({
            "version": "mhalubench.v1",
            "pairs": [{"id": "x", "task": "vqa"}],
        }))
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert exc_info.value.path.startswith("/pairs/0")

    def test_image_digest_verified_when_file_present(self, tmp_path):
        pair = _bench_pair("a", [H])
        bench = _bench([pair])
        (tmp_path / "images").mkdir()
        (tmp_path / pair.image.path).write_bytes(b"actual different bytes")
        path = tmp_path / "bench.json"
        save(bench, path)
        with pytest.raises(SchemaViolation) as exc_info:
            load(path)
        assert "digest" in exc_info.value.path

    def test_digest_only_mode_when_file_absent(self, tmp_path):
        bench = _bench([_bench_pair("a", [H])])
        path = tmp_path / "bench.json"
        save(bench, path)
        assert load(path).pairs[0].image.digest


class TestSchemaDocument:
    def test_fixture_validates_against_shipped_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        bench = _bench([_bench_pair("a", [H, NH])])
        jsonschema.validate(bench.to_json(), schema_document())

    def test_schema_rejects_bad_label(self):
        jsonschema = pytest.importorskip("jsonschema")
        bench = _bench([_bench_pair("a", [H])])
        payload = bench.to_json()
        payload["pairs"][0]["claims"][0]["gold_label"] = "sorta"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema_document())

    @pytest.mark.parametrize("pair_id", ["errors", "manifest", "../up"])
    def test_schema_rejects_what_the_loader_rejects(self, pair_id):
        jsonschema = pytest.importorskip("jsonschema")
        payload = _bench([_bench_pair("a", [H])]).to_json()
        payload["pairs"][0]["id"] = pair_id
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(payload, schema_document())


class TestStats:
    def test_counts(self):
        bench = _bench([
            _bench_pair("ic1", [H, NH], TaskType.IMAGE_CAPTIONING),
            _bench_pair("vqa1", [NH], TaskType.VQA),
            _bench_pair("t2i1", [H, H, NH], TaskType.TEXT_TO_IMAGE),
        ])
        corpus = stats(bench)
        assert corpus.n_pairs == 3
        assert corpus.n_claims == 6
        assert corpus.task_counts == {
            "image-captioning": 1, "vqa": 1, "text-to-image": 1,
        }
        assert corpus.claims_per_pair == {2: 1, 1: 1, 3: 1}
        assert corpus.label_counts == {"hallucinatory": 3, "non-hallucinatory": 3}
        assert corpus.category_counts == {"object": 3}

    def test_empty_bench(self):
        corpus = stats(_bench([]))
        assert corpus.n_pairs == 0
        assert corpus.to_json()["task_counts"] == {
            "image-captioning": 0, "vqa": 0, "text-to-image": 0,
        }

    def test_category_mix(self):
        cats = [
            frozenset({HallucinationCategory.OBJECT}),
            frozenset({HallucinationCategory.OBJECT}),
            frozenset({HallucinationCategory.ATTRIBUTE}),
            frozenset({HallucinationCategory.SCENE_TEXT}),
            frozenset({HallucinationCategory.FACT}),
        ]
        claims = tuple(
            Claim(index=i, text=f"c{i}", gold_label=H, gold_categories=cat)
            for i, cat in enumerate(cats, start=1)
        )
        pair = ImageTextPair(id="p", task=TaskType.VQA, image=image_ref("p"),
                             text="t", claims=claims)
        corpus = stats(_bench([pair]))
        assert corpus.category_counts == {
            "object": 2, "attribute": 1, "scene-text": 1, "fact": 1,
        }


class TestConvertPredictions:
    def test_alignment_and_levels(self):
        pair_a = _bench_pair("a", [H, NH])          # segments S1, S2
        pair_b = _bench_pair("b", [NH], segmented=False)
        bench = _bench([pair_a, pair_b])
        results = [
            _result(pair_a, [H, H]),
            _result(pair_b, [NH]),
        ]
        converted = convert_predictions(results, bench)
        assert converted.claim.preds == (H, H, NH)
        assert converted.claim.golds == (H, NH, NH)
        assert converted.segment.preds == (H, H)
        assert converted.segment.golds == (H, NH)
        assert converted.response.preds == (H, NH)
        assert converted.response.golds == (H, NH)
        assert converted.claim_categories[0] == frozenset({HallucinationCategory.OBJECT})

    def test_missing_prediction(self):
        pair = _bench_pair("a", [H])
        with pytest.raises(MissingPrediction):
            convert_predictions([], _bench([pair]))

    def test_extra_claim_in_result(self):
        pair = _bench_pair("a", [H])
        result = _result(pair, [H, NH])
        with pytest.raises(IndexMismatch):
            convert_predictions([result], _bench([pair]))

    def test_unverified_counts_surface(self):
        pair = _bench_pair("a", [H, NH])
        verdicts = (
            Verdict(claim_index=1, label=NH, rationale="",
                    parse_flags=frozenset({ParseFlag.UNVERIFIED})),
            Verdict(claim_index=2, label=NH, rationale="fine"),
        )
        result = DetectionResult(pair_id="a", method=DetectionMethod.UNIHD,
                                 verdicts=verdicts, plan=None,
                                 evidence=EvidenceBundle(), degraded=True, trace=())
        converted = convert_predictions([result], _bench([pair]))
        assert converted.claim.unverified_count == 1
        assert converted.segment.unverified_count == 1
        assert converted.response.unverified_count == 1
