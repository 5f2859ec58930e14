"""Benchmark loading, schema enforcement, stats, and result alignment."""

from __future__ import annotations

import dataclasses
import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import e2e_scenario
from conftest import image_ref
from halodet.bench import (
    BenchmarkFile,
    convert_predictions,
    load,
    load_demos,
    load_detection_input,
    save,
    stats,
)
from halodet.errors import (
    HalodetError,
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
    ImageRef,
    ImageTextPair,
    Label,
    ParseFlag,
    Segment,
    TaskType,
    Verdict,
)
from halodet.stages import DetectionMethod


def schema_document() -> dict:
    """The JSON Schema shipped in the package for the benchmark format."""
    schema = resources.files("halodet") / "schema" / "mhalubench.v1.json"
    return json.loads(schema.read_text("utf-8"))


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


_DELETE = object()
_DIGEST_A = "fb6c34086303a1420cbe260da742721497efb59b747205d2bafe510e27c4e252"


def _edited(edits, single: bool = False) -> str:
    """Pair "a" (claims 1 H and 2 NH, segments S1 and S2) with JSON-pointer edits.

    The pair sits in a benchmark file, or stands alone as a single-pair file
    when ``single`` is set. A pointer ending in ``-`` appends to a list;
    ``_DELETE`` removes the key.
    """
    pair = _bench_pair("a", [H, NH])
    doc = pair.to_json() if single else _bench([pair]).to_json()
    for pointer, value in edits:
        *parents, last = pointer[1:].split("/")
        node = doc
        for key in parents:
            node = node[int(key)] if isinstance(node, list) else node[key]
        if last == "-":
            node.append(value)
        elif value is _DELETE:
            del node[last]
        else:
            node[int(last) if isinstance(node, list) else last] = value
    return json.dumps(doc)


def _case(case_id, document, error, path, message, image=None):
    return pytest.param(document, error, path, message, image, id=case_id)


_P, _C0, _S1 = "/pairs/0", "/pairs/0/claims/0", "/pairs/0/segments/1"
_EXPECTED_OBJECT, _EXPECTED_STRING = "expected an object", "expected a string"
_NON_EMPTY_STRING = "expected a non-empty string"
_TASKS = "['image-captioning', 'text-to-image', 'vqa']"

# One malformed document per check in bench.load and its validators, with the
# exception class, JSON pointer and message each must produce. A None path
# means the exception has no pointer and ``message`` is its whole text.
REJECTIONS = [
    _case("not-json", "{", SchemaViolation, "/",
          "not valid JSON: Expecting property name enclosed in double quotes: "
          "line 1 column 2 (char 1)"),
    _case("top-not-object", "[]", SchemaViolation, "/", _EXPECTED_OBJECT),
    _case("wrong-version", _edited([("/version", "mhalubench.v2")]), UnsupportedVersion,
          None, "unsupported benchmark schema version: 'mhalubench.v2'"),
    _case("missing-version", _edited([("/version", _DELETE)]), UnsupportedVersion,
          None, "unsupported benchmark schema version: 'None'"),
    _case("pairs-not-list", _edited([("/pairs", {})]), SchemaViolation, "/pairs",
          "expected a list"),
    _case("pairs-missing", _edited([("/pairs", _DELETE)]), SchemaViolation, "/pairs",
          "expected a list"),
    _case("provenance-not-object", _edited([("/provenance", [])]), SchemaViolation,
          "/provenance", _EXPECTED_OBJECT),
    _case("pair-not-object", _edited([("/pairs/0", "a")]), SchemaViolation, _P,
          _EXPECTED_OBJECT),
    _case("id-not-string", _edited([(f"{_P}/id", 7)]), SchemaViolation, f"{_P}/id",
          _EXPECTED_STRING),
    _case("id-missing", _edited([(f"{_P}/id", _DELETE)]), SchemaViolation, f"{_P}/id",
          _EXPECTED_STRING),
    _case("id-bad-characters", _edited([(f"{_P}/id", "a b")]), SchemaViolation,
          f"{_P}/id", "pair id 'a b' must match [A-Za-z0-9._-]+"),
    _case("id-reserved", _edited([(f"{_P}/id", "errors")]), SchemaViolation, f"{_P}/id",
          "pair id 'errors' is reserved for the run's own errors.json"),
    _case("task-missing", _edited([(f"{_P}/task", _DELETE)]), SchemaViolation,
          f"{_P}/task", _EXPECTED_STRING),
    _case("task-not-string", _edited([(f"{_P}/task", ["vqa"])]), SchemaViolation,
          f"{_P}/task", _EXPECTED_STRING),
    _case("task-unknown", _edited([(f"{_P}/task", "poetry")]), SchemaViolation,
          f"{_P}/task", f"'poetry' is not one of {_TASKS}"),
    _case("image-not-object", _edited([(f"{_P}/image", "images/a.jpg")]),
          SchemaViolation, f"{_P}/image", _EXPECTED_OBJECT),
    _case("image-path-empty", _edited([(f"{_P}/image/path", "")]), SchemaViolation,
          f"{_P}/image/path", _NON_EMPTY_STRING),
    _case("image-path-not-string", _edited([(f"{_P}/image/path", 3)]), SchemaViolation,
          f"{_P}/image/path", _NON_EMPTY_STRING),
    _case("digest-missing", _edited([(f"{_P}/image/digest", _DELETE)]), SchemaViolation,
          f"{_P}/image/digest", "expected a 64-hex sha256 digest"),
    _case("digest-not-string", _edited([(f"{_P}/image/digest", 64)]), SchemaViolation,
          f"{_P}/image/digest", "expected a 64-hex sha256 digest"),
    _case("digest-short", _edited([(f"{_P}/image/digest", _DIGEST_A[:63])]),
          SchemaViolation, f"{_P}/image/digest", "expected a 64-hex sha256 digest"),
    _case("digest-uppercase", _edited([(f"{_P}/image/digest", _DIGEST_A.upper())]),
          SchemaViolation, f"{_P}/image/digest", "expected a 64-hex sha256 digest"),
    _case("text-empty", _edited([(f"{_P}/text", "")]), SchemaViolation, f"{_P}/text",
          _NON_EMPTY_STRING),
    _case("text-not-string", _edited([(f"{_P}/text", None)]), SchemaViolation,
          f"{_P}/text", _NON_EMPTY_STRING),
    _case("claims-empty", _edited([(f"{_P}/claims", [])]), SchemaViolation,
          f"{_P}/claims", "expected a non-empty list"),
    _case("claims-not-list", _edited([(f"{_P}/claims", {"1": "x"})]), SchemaViolation,
          f"{_P}/claims", "expected a non-empty list"),
    _case("claim-not-object", _edited([(_C0, "a claim")]), SchemaViolation, _C0,
          _EXPECTED_OBJECT),
    _case("claim-index-string", _edited([(f"{_C0}/index", "1")]), SchemaViolation,
          f"{_C0}/index", "expected an integer"),
    _case("claim-index-float", _edited([(f"{_C0}/index", 1.0)]), SchemaViolation,
          f"{_C0}/index", "expected an integer"),
    _case("claim-text-empty", _edited([(f"{_C0}/text", "")]), SchemaViolation,
          f"{_C0}/text", _NON_EMPTY_STRING),
    _case("claim-text-missing", _edited([(f"{_C0}/text", _DELETE)]), SchemaViolation,
          f"{_C0}/text", _NON_EMPTY_STRING),
    _case("gold-label-missing", _edited([(f"{_C0}/gold_label", _DELETE)]),
          SchemaViolation, f"{_C0}/gold_label", "benchmark claims need a gold label"),
    _case("gold-label-null", _edited([(f"{_C0}/gold_label", None)]), SchemaViolation,
          f"{_C0}/gold_label", _EXPECTED_STRING),
    _case("gold-label-unknown", _edited([(f"{_C0}/gold_label", "sorta")]),
          SchemaViolation, f"{_C0}/gold_label",
          "'sorta' is not one of ['hallucinatory', 'non-hallucinatory']"),
    _case("categories-not-list", _edited([(f"{_C0}/gold_categories", "object")]),
          SchemaViolation, f"{_C0}/gold_categories", "expected a list"),
    _case("categories-null", _edited([(f"{_C0}/gold_categories", None)]),
          SchemaViolation, f"{_C0}/gold_categories", "expected a list"),
    _case("category-unknown", _edited([(f"{_C0}/gold_categories", ["object", "styles"])]),
          SchemaViolation, f"{_C0}/gold_categories/1",
          "'styles' is not one of ['attribute', 'fact', 'object', 'scene-text']"),
    _case("category-not-string", _edited([(f"{_C0}/gold_categories", [3])]),
          SchemaViolation, f"{_C0}/gold_categories/0", _EXPECTED_STRING),
    _case("segment-id-of-claim-not-string", _edited([(f"{_C0}/segment_id", 1)]),
          SchemaViolation, f"{_C0}/segment_id", _EXPECTED_STRING),
    _case("segments-not-list", _edited([(f"{_P}/segments", None)]), SchemaViolation,
          f"{_P}/segments", "expected a list"),
    _case("segment-not-object", _edited([(_S1, ["S2"])]), SchemaViolation, _S1,
          _EXPECTED_OBJECT),
    _case("segment-id-empty", _edited([(f"{_S1}/id", "")]), SchemaViolation,
          f"{_S1}/id", _NON_EMPTY_STRING),
    _case("segment-id-not-string", _edited([(f"{_S1}/id", 2)]), SchemaViolation,
          f"{_S1}/id", _NON_EMPTY_STRING),
    _case("segment-text-not-string", _edited([(f"{_S1}/text", None)]), SchemaViolation,
          f"{_S1}/text", _EXPECTED_STRING),
    _case("segment-indices-empty", _edited([(f"{_S1}/claim_indices", [])]),
          SchemaViolation, f"{_S1}/claim_indices", "expected a non-empty list"),
    _case("segment-indices-not-list", _edited([(f"{_S1}/claim_indices", 2)]),
          SchemaViolation, f"{_S1}/claim_indices", "expected a non-empty list"),
    _case("segment-index-not-integer", _edited([(f"{_S1}/claim_indices", [2, "x"])]),
          SchemaViolation, f"{_S1}/claim_indices/1", "expected an integer"),
    _case("second-pair-pointer",
          _edited([("/pairs/-", _bench_pair("b", [NH]).to_json()),
                   ("/pairs/1/claims/0/text", "")]),
          SchemaViolation, "/pairs/1/claims/0/text", _NON_EMPTY_STRING),
    _case("duplicate-id", _edited([("/pairs/-", _bench_pair("a", [NH]).to_json())]),
          SchemaViolation, "/pairs/1/id", "duplicate pair id 'a'"),
    _case("claim-indices-not-contiguous", _edited([("/pairs/0/claims/1/index", 3)]),
          SchemaViolation, _P,
          "non-contiguous claim indices: [1, 3]; "
          "claim 3: segment_id 'S2' disagrees with owning segment None"),
    _case("categories-on-non-hallucinatory",
          _edited([("/pairs/0/claims/1/gold_categories", ["fact"])]),
          SchemaViolation, _P, "claim 2: category tags on a non-hallucinatory claim"),
    _case("segment-dangling-reference", _edited([(f"{_S1}/claim_indices", [5])]),
          SchemaViolation, _P,
          "segment 'S2': dangling claim reference 5; "
          "claims not covered by any segment: [2]; "
          "claim 2: segment_id 'S2' disagrees with owning segment None"),
    _case("digest-mismatch-of-present-file", _edited([]), SchemaViolation,
          f"{_P}/image/digest",
          "file digest 764295ade9b38beb655ffea4b4e145d48dcda8e21c62db48e5274b92e8c075d9"
          " does not match recorded digest",
          image=b"actual different bytes"),
]


class TestRejections:
    @pytest.mark.parametrize("document, error, path, message, image", REJECTIONS)
    def test_each_check_names_its_pointer(self, tmp_path, document, error, path,
                                          message, image):
        if image is not None:
            (tmp_path / "images").mkdir()
            (tmp_path / "images" / "a.jpg").write_bytes(image)
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(document)
        with pytest.raises(error) as exc_info:
            load(bench_path)
        assert type(exc_info.value) is error
        assert getattr(exc_info.value, "path", None) == path
        assert str(exc_info.value) == (message if path is None else f"{path}: {message}")

    @pytest.mark.parametrize("pointer, value, message", [
        (f"{_P}/image/digest", _DIGEST_A + "\n", "expected a 64-hex sha256 digest"),
        (f"{_C0}/index", True, "expected an integer"),
        (f"{_S1}/claim_indices/0", True, "expected an integer"),
    ], ids=["digest-trailing-newline", "claim-index-boolean", "segment-index-boolean"])
    def test_what_the_schema_rejects_too(self, tmp_path, pointer, value, message):
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(_edited([(pointer, value)]))
        with pytest.raises(SchemaViolation) as exc_info:
            load(bench_path)
        assert str(exc_info.value) == f"{pointer}: {message}"

    def test_the_unedited_document_loads(self, tmp_path):
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(_edited([]))
        assert load(bench_path) == _bench([_bench_pair("a", [H, NH])])


def _single(case_id, edits, path, message):
    return pytest.param(_edited(edits, single=True), path, message, id=case_id)


# A single-pair file gets every check a benchmark pair gets; its pointers start
# at the pair itself.
SINGLE_PAIR_REJECTIONS = [
    pytest.param("[]", "/", _EXPECTED_OBJECT, id="top-not-object"),
    _single("text-null", [("/text", None)], "/text", _NON_EMPTY_STRING),
    _single("claim-text-null", [("/claims/0/text", None)], "/claims/0/text",
            _NON_EMPTY_STRING),
    _single("claim-index-boolean", [("/claims/0/index", True)], "/claims/0/index",
            "expected an integer"),
    _single("digest-null", [("/image/digest", None)], "/image/digest",
            "expected a 64-hex sha256 digest"),
    _single("segment-index-string", [("/segments/0/claim_indices", ["1"])],
            "/segments/0/claim_indices/0", "expected an integer"),
    _single("claims-null", [("/claims", None)], "/claims", "expected a list"),
    _single("gold-label-null", [("/claims/0/gold_label", None)], "/claims/0/gold_label",
            _EXPECTED_STRING),
    _single("claim-indices-not-contiguous",
            [("/claims/1/index", 3), ("/claims/1/segment_id", _DELETE)], "/",
            "non-contiguous claim indices: [1, 3]"),
    _single("pair-extra-key", [("/answer", "yes")], "/answer", "unknown key"),
    _single("image-extra-key", [("/image/size", 1024)], "/image/size", "unknown key"),
    _single("claim-extra-key", [("/claims/1/score", 1)], "/claims/1/score", "unknown key"),
    _single("duplicate-categories", [("/claims/0/gold_categories", ["fact", "fact"])],
            "/claims/0/gold_categories/1", "duplicate category 'fact'"),
]


class TestSinglePairInput:
    @pytest.mark.parametrize("document, path, message", SINGLE_PAIR_REJECTIONS)
    def test_each_check_names_its_pointer(self, tmp_path, document, path, message):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(document)
        with pytest.raises(SchemaViolation) as exc_info:
            load_detection_input(pair_path)
        assert str(exc_info.value) == f"{path}: {message}"

    def test_the_unedited_pair_loads(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(_edited([], single=True))
        assert load_detection_input(pair_path) == (_bench_pair("a", [H, NH]),)

    @pytest.mark.parametrize("edits", [
        [("/claims", _DELETE), ("/segments", _DELETE)],
        [("/claims", []), ("/segments", _DELETE)],
    ], ids=["claims-missing", "claims-empty"])
    def test_claims_may_be_left_out(self, tmp_path, edits):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(_edited(edits, single=True))
        (pair,) = load_detection_input(pair_path)
        assert pair.claims == () and pair.segments is None

    def test_gold_labels_may_be_left_out(self, tmp_path):
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(_edited([("/claims/0/gold_label", _DELETE),
                                      ("/claims/0/gold_categories", _DELETE),
                                      ("/claims/1/gold_label", _DELETE)], single=True))
        (pair,) = load_detection_input(pair_path)
        assert [claim.gold_label for claim in pair.claims] == [None, None]
        assert [claim.text for claim in pair.claims] == ["a claim 1", "a claim 2"]

    def test_image_digest_verified_when_file_present(self, tmp_path):
        (tmp_path / "images").mkdir()
        (tmp_path / "images" / "a.jpg").write_bytes(b"actual different bytes")
        pair_path = tmp_path / "pair.json"
        pair_path.write_text(_edited([], single=True))
        with pytest.raises(SchemaViolation) as exc_info:
            load_detection_input(pair_path)
        assert exc_info.value.path == "/image/digest"
        assert "does not match recorded digest" in str(exc_info.value)


_SEGMENTS = _bench_pair("a", [H, NH]).to_json()["segments"]

# Edits the shipped schema forbids: a key it does not list, at each object level,
# and a category listed twice. bench.load must reject each where the schema does.
SCHEMA_REJECTIONS = [
    pytest.param([("/comment", "x")], "/comment", id="file-extra-key"),
    pytest.param([(f"{_P}/answer", "yes")], f"{_P}/answer", id="pair-extra-key"),
    pytest.param([(f"{_P}/segments", _DELETE), (f"{_P}/segmnets", _SEGMENTS)],
                 f"{_P}/segmnets", id="misspelled-segments"),
    pytest.param([(f"{_P}/image/size", 1024)], f"{_P}/image/size", id="image-extra-key"),
    pytest.param([(f"{_P}/image/a~b", 1)], f"{_P}/image/a~0b", id="escaped-extra-key"),
    pytest.param([(f"{_C0}/confidence", 0.9)], f"{_C0}/confidence", id="claim-extra-key"),
    pytest.param([(f"{_S1}/note", "")], f"{_S1}/note", id="segment-extra-key"),
]


class TestSchemaRejections:
    @pytest.mark.parametrize("edits, pointer", SCHEMA_REJECTIONS)
    def test_an_unknown_key_is_rejected_at_its_pointer(self, tmp_path, edits, pointer):
        self._both_reject(tmp_path, _edited(edits), f"{pointer}: unknown key")

    def test_a_category_listed_twice_is_rejected(self, tmp_path):
        document = _edited([(f"{_C0}/gold_categories", ["object", "fact", "object"])])
        self._both_reject(tmp_path, document,
                          f"{_C0}/gold_categories/2: duplicate category 'object'")

    @staticmethod
    def _both_reject(tmp_path, document, expected):
        bench_path = tmp_path / "bench.json"
        bench_path.write_text(document)
        with pytest.raises(SchemaViolation) as exc_info:
            load(bench_path)
        assert str(exc_info.value) == expected
        jsonschema = pytest.importorskip("jsonschema")
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(json.loads(document), schema_document())

    @pytest.mark.parametrize("path, value, pointer", [
        ((0, "note"), "x", "/0/note"),
        ((1, "image", "size"), 1, "/1/image/size"),
        ((1, "verdicts", 0, "score"), 1, "/1/verdicts/0/score"),
    ], ids=["entry", "image", "verdict"])
    def test_a_demos_file_with_an_unknown_key_is_rejected(self, tmp_path, path, value,
                                                          pointer):
        demos = e2e_scenario.demos_json()
        node = demos
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        demos_path = tmp_path / "demos.json"
        demos_path.write_text(json.dumps(demos))
        with pytest.raises(SchemaViolation) as exc_info:
            load_demos(demos_path)
        assert str(exc_info.value) == f"{pointer}: unknown key"


# The schema's object definitions and the record that decodes each.
_RECORDS = {"pair": ImageTextPair, "image": ImageRef, "claim": Claim, "segment": Segment}


class TestSchemaDrift:
    def test_each_record_reads_the_keys_the_schema_lists(self):
        schema = schema_document()
        assert BenchmarkFile._KEYS == set(schema["properties"])
        assert set(_RECORDS) == set(schema["$defs"])
        for name, record in _RECORDS.items():
            assert record._KEYS == set(schema["$defs"][name]["properties"]), name

    @pytest.mark.parametrize("at, definition", [
        ("", None), (_P, "pair"), (f"{_P}/image", "image"), (_C0, "claim"), (_S1, "segment"),
    ], ids=["file", "pair", "image", "claim", "segment"])
    def test_a_key_may_be_left_out_iff_the_schema_does_not_require_it(self, tmp_path, at,
                                                                      definition):
        schema = schema_document()
        node = schema if definition is None else schema["$defs"][definition]
        bench_path = tmp_path / "bench.json"
        for key in node["properties"]:
            edits = [(f"{at}/{key}", _DELETE)]
            if key == "segments":  # the claims name their segments
                edits += [(f"{_P}/claims/{j}/segment_id", _DELETE) for j in (0, 1)]
            bench_path.write_text(_edited(edits))
            if key not in node["required"]:
                assert load(bench_path).pairs, key
                continue
            with pytest.raises(HalodetError) as exc_info:
                load(bench_path)
            if key == "version":
                assert type(exc_info.value) is UnsupportedVersion
            else:
                assert exc_info.value.path == f"{at}/{key}", key


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

    @pytest.mark.parametrize("digest", [_DIGEST_A + "\n", _DIGEST_A[:63], _DIGEST_A + "0"],
                             ids=["trailing-newline", "short", "long"])
    def test_schema_rejects_a_digest_the_loader_rejects(self, digest):
        jsonschema = pytest.importorskip("jsonschema")
        payload = _bench([_bench_pair("a", [H])]).to_json()
        payload["pairs"][0]["image"]["digest"] = digest
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

    def test_a_claim_without_a_gold_label_cannot_be_scored(self):
        pair = _bench_pair("a", [H, NH])
        unlabeled = dataclasses.replace(pair.claims[1], gold_label=None)
        pair = dataclasses.replace(pair, claims=(pair.claims[0], unlabeled))
        with pytest.raises(IndexMismatch, match="pair 'a': claim 2 has no gold label"):
            convert_predictions([_result(pair, [H, NH])], _bench([pair]))

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


@st.composite
def _scored_pairs(draw):
    """Pairs with and without segments, with the result each was judged by.

    Each claim draws a gold label, a predicted label and an UNVERIFIED flag;
    a segmented pair cuts its claims into contiguous segments.
    """
    pairs = []
    for p in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 5))
        golds = draw(st.lists(st.sampled_from([H, NH]), min_size=n, max_size=n))
        preds = draw(st.lists(st.sampled_from([H, NH]), min_size=n, max_size=n))
        flags = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        segments = None
        if draw(st.booleans()):
            cuts = draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1))
            starts = [1] + [i for i, cut in enumerate(cuts, start=2) if cut]
            bounds = list(zip(starts, starts[1:] + [n + 1]))
            segments = tuple(
                Segment(id=f"S{k}", text=f"segment {k}", claim_indices=tuple(range(lo, hi)))
                for k, (lo, hi) in enumerate(bounds, start=1)
            )
        claims = tuple(
            Claim(index=i, text=f"claim {i}", gold_label=gold,
                  gold_categories=(frozenset({HallucinationCategory.FACT})
                                   if gold is H else None))
            for i, gold in enumerate(golds, start=1)
        )
        pair = ImageTextPair(id=f"p{p}", task=TaskType.VQA, image=image_ref(f"p{p}"),
                             text="t", claims=claims, segments=segments)
        verdicts = tuple(
            Verdict(claim_index=i, label=pred, rationale="" if flag else f"judged {i}",
                    parse_flags=frozenset({ParseFlag.UNVERIFIED}) if flag else frozenset())
            for i, (pred, flag) in enumerate(zip(preds, flags), start=1)
        )
        result = DetectionResult(pair_id=pair.id, method=DetectionMethod.UNIHD,
                                 verdicts=verdicts, plan=None, evidence=EvidenceBundle(),
                                 degraded=any(flags), trace=())
        pairs.append((pair, result))
    return pairs


def _any_h(labels) -> Label:
    return H if H in labels else NH


class TestConvertOracle:
    @given(_scored_pairs())
    def test_matches_brute_force_oracle(self, scored):
        """Segment and response are H iff one of their claims is; unverified
        counts are the flagged claims and the segments and pairs holding one."""
        expected = {name: [] for name in (
            "claim_preds", "claim_golds", "segment_preds", "segment_golds",
            "response_preds", "response_golds", "claim_categories")}
        claim_unverified = segment_unverified = response_unverified = 0
        for pair, result in scored:
            pred = {v.claim_index: v.label for v in result.verdicts}
            flagged = {v.claim_index for v in result.verdicts
                       if ParseFlag.UNVERIFIED in v.parse_flags}
            gold = {c.index: c.gold_label for c in pair.claims}
            for claim in pair.claims:
                expected["claim_preds"].append(pred[claim.index])
                expected["claim_golds"].append(claim.gold_label)
                expected["claim_categories"].append(claim.gold_categories)
            claim_unverified += len(flagged)
            for segment in pair.segments or ():
                expected["segment_preds"].append(_any_h([pred[i] for i in segment.claim_indices]))
                expected["segment_golds"].append(_any_h([gold[i] for i in segment.claim_indices]))
                segment_unverified += any(i in flagged for i in segment.claim_indices)
            expected["response_preds"].append(_any_h(list(pred.values())))
            expected["response_golds"].append(_any_h(list(gold.values())))
            response_unverified += bool(flagged)

        converted = convert_predictions([r for _, r in scored],
                                        _bench([p for p, _ in scored]))
        got = {
            "claim_preds": converted.claim.preds, "claim_golds": converted.claim.golds,
            "segment_preds": converted.segment.preds,
            "segment_golds": converted.segment.golds,
            "response_preds": converted.response.preds,
            "response_golds": converted.response.golds,
            "claim_categories": converted.claim_categories,
        }
        assert got == {name: tuple(values) for name, values in expected.items()}
        assert (converted.claim.unverified_count, converted.segment.unverified_count,
                converted.response.unverified_count) == (
            claim_unverified, segment_unverified, response_unverified)


@pytest.mark.parametrize("read", [load, load_demos, load_detection_input],
                         ids=["load", "load_demos", "load_detection_input"])
def test_json_nested_too_deeply_is_a_schema_violation(tmp_path, read):
    path = tmp_path / "deep.json"
    path.write_text("[" * 5000 + "]" * 5000)
    with pytest.raises(SchemaViolation) as raised:
        read(path)
    assert raised.value.path == "/"
    assert raised.value.reason.startswith("not valid JSON: maximum recursion depth")
