"""Core domain types: invariants, validation reports, JSON round-trips."""

from __future__ import annotations

import json
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import image_ref
from halodet.bench import SCHEMA_VERSION, load, load_detection_input
from halodet.errors import SchemaViolation
from halodet.executor import DetectionResult
from halodet.model import (
    AttributeEvidence,
    Claim,
    EvidenceBundle,
    FactEvidence,
    HallucinationCategory,
    ImageTextPair,
    Label,
    NormBox,
    ObjectEvidence,
    ParseFlag,
    SceneTextEvidence,
    Segment,
    TaskType,
    Verdict,
    claim_key,
    parse_claim_key,
    within,
    validate_norm_box,
    validate_pair,
)
from halodet.stages import ClaimQueries, DetectionMethod, ToolPlan


class TestEnums:
    @pytest.mark.parametrize("enum_cls, bad", [
        (Label, "maybe"),
        (Label, "Hallucinatory"),
        (HallucinationCategory, "styles"),
        (HallucinationCategory, "scene_text"),
        (TaskType, "captioning"),
    ])
    def test_closed_vocabulary(self, enum_cls, bad):
        with pytest.raises(ValueError):
            enum_cls(bad)

    def test_wire_values_are_lowercase(self):
        assert Label.HALLUCINATORY.value == "hallucinatory"
        assert Label.NON_HALLUCINATORY.value == "non-hallucinatory"
        assert HallucinationCategory.SCENE_TEXT.value == "scene-text"


class TestClaimKeys:
    def test_round_trip(self):
        assert claim_key(1) == "claim1"
        assert claim_key(12) == "claim12"
        assert parse_claim_key("claim7") == 7

    @pytest.mark.parametrize("bad", ["claim0", "claim", "claim01", "c1", "claim-1", "claimx"])
    def test_rejects_non_keys(self, bad):
        with pytest.raises(ValueError):
            parse_claim_key(bad)

    def test_an_index_below_one_has_no_key(self):
        with pytest.raises(ValueError, match="claim index must be >= 1, got 0"):
            claim_key(0)


class TestNormBox:
    def test_typical_detection_box_is_valid(self):
        assert validate_norm_box(NormBox(0.345, 0.424, 0.408, 0.509))

    def test_full_image_box_is_valid(self):
        assert validate_norm_box(NormBox(0.0, 0.0, 1.0, 1.0))

    @pytest.mark.parametrize("coords", [
        (0.5, 0.2, 0.4, 0.3),   # x1 >= x2
        (0.1, 0.5, 0.2, 0.5),   # y1 >= y2
        (-0.1, 0.0, 0.5, 0.5),  # below range
        (0.0, 0.0, 1.1, 0.5),   # above range
    ])
    def test_invalid_boxes(self, coords):
        assert not validate_norm_box(NormBox(*coords))


class TestValidatePair:
    def test_well_formed_pair(self, simple_pair):
        assert validate_pair(simple_pair) == ()

    @pytest.mark.parametrize("pair_id", ["", "../escaped", "a/b", "errors", "manifest"])
    def test_id_must_name_a_result_file(self, simple_pair, pair_id):
        from dataclasses import replace

        violations = validate_pair(replace(simple_pair, id=pair_id))
        assert violations
        assert any("pair id" in v for v in violations)

    def test_non_contiguous_indices(self, simple_pair):
        from dataclasses import replace

        claims = (simple_pair.claims[0], replace(simple_pair.claims[1], index=3))
        pair = replace(simple_pair, claims=claims, segments=None)
        violations = validate_pair(pair)
        assert violations
        assert any("non-contiguous" in v for v in violations)

    def test_dangling_segment_reference(self, simple_pair):
        from dataclasses import replace

        segments = (Segment(id="S1", text="x", claim_indices=(1, 2, 3, 5)),)
        pair = replace(simple_pair, segments=segments)
        violations = validate_pair(pair)
        assert any("dangling claim reference 5" in v for v in violations)

    def test_claim_in_two_segments(self, simple_pair):
        from dataclasses import replace

        segments = (
            Segment(id="S1", text="a", claim_indices=(1, 2)),
            Segment(id="S2", text="b", claim_indices=(2, 3)),
        )
        pair = replace(simple_pair, segments=segments)
        violations = validate_pair(pair)
        assert any("assigned to both" in v for v in violations)

    def test_duplicate_segment_id(self, simple_pair):
        from dataclasses import replace

        segments = (Segment(id="S1", text="a", claim_indices=(1, 2)),
                    Segment(id="S1", text="b", claim_indices=(3,)))
        violations = validate_pair(replace(simple_pair, segments=segments))
        assert "duplicate segment id 'S1'" in violations

    def test_uncovered_claim(self, simple_pair):
        from dataclasses import replace

        segments = (Segment(id="S1", text="a", claim_indices=(1, 2)),)
        pair = replace(simple_pair, segments=segments)
        violations = validate_pair(pair)
        assert any("not covered" in v for v in violations)

    def test_category_tags_need_hallucinatory_label(self, simple_pair):
        from dataclasses import replace

        tagged = replace(
            simple_pair.claims[0],
            gold_categories=frozenset({HallucinationCategory.OBJECT}),
        )
        pair = replace(simple_pair, claims=(tagged,) + simple_pair.claims[1:])
        violations = validate_pair(pair)
        assert any("non-hallucinatory claim" in v for v in violations)

    @pytest.mark.parametrize("edit, violation", [
        (lambda pair: {"text": ""}, "empty pair text"),
        (lambda pair: {"claims": (replace(pair.claims[0], text=""),) + pair.claims[1:]},
         "claim 1: empty text"),
        (lambda pair: {"segments": pair.segments + (Segment("S3", "", ()),)},
         "segment 'S3': empty claim list"),
    ])
    def test_an_empty_text_or_segment_is_a_violation(self, simple_pair, edit, violation):
        assert violation in validate_pair(replace(simple_pair, **edit(simple_pair)))


class TestVerdictInvariants:
    def test_rationale_required(self):
        with pytest.raises(ValueError):
            Verdict(claim_index=1, label=Label.HALLUCINATORY, rationale="")

    def test_unverified_may_be_blank(self):
        verdict = Verdict(
            claim_index=1, label=Label.NON_HALLUCINATORY, rationale="",
            parse_flags=frozenset({ParseFlag.UNVERIFIED}),
        )
        assert verdict.rationale == ""

    def test_round_trip(self):
        verdict = Verdict(
            claim_index=2, label=Label.HALLUCINATORY, rationale="count conflict",
            parse_flags=frozenset({ParseFlag.REPAIRED}),
        )
        assert Verdict.from_json(verdict.to_json()) == verdict


class TestEvidence:
    def test_tagged_union_round_trip(self):
        items = [
            ObjectEvidence(label="people", box=NormBox(0.345, 0.424, 0.408, 0.509)),
            AttributeEvidence(question="What color is the uniform?", answer="red"),
            SceneTextEvidence(text="worlld", box=NormBox(0.405, 0.504, 0.726, 0.7)),
            FactEvidence(question="Where is Huawei headquartered?", snippets=()),
        ]
        for item in items:
            assert type(item).from_json(item.to_json()) == item

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="^/kind: expected kind 'object', got 'vibes'$"):
            ObjectEvidence.from_json({"kind": "vibes", "label": "x",
                                      "box": NormBox(0.0, 0.3, 0.9, 0.8).to_json()})

    def test_item_of_another_family_rejected(self):
        box = NormBox(0.0, 0.3, 0.9, 0.8)
        data = EvidenceBundle(scene_texts=(SceneTextEvidence("open", box),)).to_json()
        data["objects"], data["scene_texts"] = data["scene_texts"], []
        with pytest.raises(ValueError):
            EvidenceBundle.from_json(data)

    def test_bundle_round_trip(self):
        bundle = EvidenceBundle(
            objects=(ObjectEvidence("car", NormBox(0.0, 0.3, 0.9, 0.8)),),
            facts=(FactEvidence("q", ("s1", "s2")),),
        )
        assert EvidenceBundle.from_json(bundle.to_json()) == bundle
        assert bundle != EvidenceBundle()


# --- property tests ------------------------------------------------------------------

_labels = st.sampled_from(list(Label))
_categories = st.frozensets(st.sampled_from(list(HallucinationCategory)), min_size=1)
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=40
)


@st.composite
def pairs(draw) -> ImageTextPair:
    n = draw(st.integers(min_value=1, max_value=6))
    claims = []
    for i in range(1, n + 1):
        label = draw(_labels)
        cats = draw(_categories) if label is Label.HALLUCINATORY and draw(st.booleans()) else None
        claims.append(Claim(index=i, text=draw(_texts), gold_label=label,
                            gold_categories=cats))
    task = draw(st.sampled_from(list(TaskType)))
    with_segments = draw(st.booleans())
    segments = None
    if with_segments:
        cut_points = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        bounds = [0] + cut_points + [n]
        segments = tuple(
            Segment(id=f"S{k + 1}", text=draw(_texts),
                    claim_indices=tuple(range(bounds[k] + 1, bounds[k + 1] + 1)))
            for k in range(len(bounds) - 1)
        )
    return ImageTextPair(
        id=draw(st.uuids()).hex, task=task, image=image_ref("prop"),
        text=draw(_texts), claims=tuple(claims), segments=segments,
    )


@given(pairs())
def test_pair_json_round_trip(pair):
    # Through the checked walk, once in a benchmark file and once as a single-pair file.
    with tempfile.TemporaryDirectory() as folder:
        bench_path, pair_path = Path(folder, "bench.json"), Path(folder, "pair.json")
        bench_path.write_text(json.dumps({"version": SCHEMA_VERSION, "pairs": [pair.to_json()]}))
        pair_path.write_text(json.dumps(pair.to_json()))
        assert load_detection_input(bench_path) == (pair,)
        assert load_detection_input(pair_path) == (pair,)


@given(pairs())
def test_generated_pairs_validate(pair):
    assert validate_pair(pair) == ()


@given(pairs())
def test_segments_partition_claims(pair):
    if pair.segments is None:
        return
    covered = [i for segment in pair.segments for i in segment.claim_indices]
    assert sorted(covered) == list(range(1, len(pair.claims) + 1))
    assert len(covered) == len(set(covered))


# --- decoders: round trips, and one unknown key at any object level ---------------

_words = st.text(max_size=12)
_word_tuples = st.lists(_words, max_size=3).map(tuple)
_boxes = st.builds(NormBox, *[st.floats(0, 1)] * 4)
_evidence = st.one_of(
    st.builds(ObjectEvidence, _words, _boxes),
    st.builds(AttributeEvidence, _words, _words),
    st.builds(SceneTextEvidence, _words, _boxes),
    st.builds(FactEvidence, _words, _word_tuples),
)


@st.composite
def results(draw) -> DetectionResult:
    n = draw(st.integers(min_value=1, max_value=4))
    queries = st.builds(ClaimQueries, _word_tuples, _word_tuples, _word_tuples, _word_tuples)
    plan = draw(st.none() | st.lists(queries, min_size=n, max_size=n).map(
        lambda per_claim: ToolPlan(tuple(per_claim))))
    items = draw(st.lists(_evidence, max_size=6))
    bundle = EvidenceBundle(*(tuple(item for item in items if type(item) is family)
                              for family in (ObjectEvidence, AttributeEvidence,
                                             SceneTextEvidence, FactEvidence)))
    verdicts = tuple(
        Verdict(i, draw(_labels), draw(_texts), draw(st.frozensets(st.sampled_from(ParseFlag))))
        for i in range(1, n + 1))
    return DetectionResult(draw(st.uuids()).hex, draw(st.sampled_from(DetectionMethod)),
                           verdicts, plan, bundle, draw(st.booleans()), ())


def _objects(node, at=""):
    """(JSON pointer, object) for every object in ``node``, the outermost first."""
    if isinstance(node, dict):
        yield at, node
        children = node.items()
    else:
        children = enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _objects(child, f"{at}/{str(key).replace('~', '~0').replace('/', '~1')}")


def _unknown_key(data, node):
    # Any key the object lacks; in a plan, claimN for the next N would be a claim.
    return data.draw(_words.filter(
        lambda key: key not in node and not re.fullmatch(r"claim[1-9][0-9]*", key)))


@given(_evidence)
def test_evidence_json_round_trip(item):
    assert type(item).from_json(item.to_json()) == item


@given(pairs())
def test_gold_pair_decodes_its_own_json(pair):
    assert ImageTextPair.from_json(pair.to_json(), gold=True) == pair


@given(results())
def test_result_payload_round_trip(result):
    payload = json.loads(json.dumps(result.payload_json()))
    assert DetectionResult.from_payload(payload) == result


@given(results(), st.data())
def test_an_unknown_key_in_a_result_is_rejected_at_its_pointer(result, data):
    payload = json.loads(json.dumps(result.payload_json()))
    at, node = data.draw(st.sampled_from(list(_objects(payload))))
    key = _unknown_key(data, node)
    node[key] = None
    with pytest.raises(ValueError) as exc_info:
        within(payload, DetectionResult.from_payload)
    escaped = key.replace("~", "~0").replace("/", "~1")
    assert str(exc_info.value) == f"{at}/{escaped}: unknown key"


@given(pairs(), st.data())
def test_an_unknown_key_in_a_benchmark_file_is_rejected_at_its_pointer(pair, data):
    document = {"version": SCHEMA_VERSION, "pairs": [pair.to_json()]}
    at, node = data.draw(st.sampled_from(list(_objects(document))))
    key = _unknown_key(data, node)
    node[key] = None
    with tempfile.TemporaryDirectory() as folder:
        bench_path = Path(folder, "bench.json")
        bench_path.write_text(json.dumps(document))
        with pytest.raises(SchemaViolation) as exc_info:
            load(bench_path)
    escaped = key.replace("~", "~0").replace("/", "~1")
    assert str(exc_info.value) == f"{at}/{escaped}: unknown key"
