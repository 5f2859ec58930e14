"""Core domain types: invariants, validation reports, JSON round-trips."""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import image_ref
from halodet.bench import SCHEMA_VERSION, load_detection_input
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
    decode_evidence,
    parse_claim_key,
    validate_norm_box,
    validate_pair,
)


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
            data = item.to_json()
            assert decode_evidence(data["kind"], [data]) == (item,)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            decode_evidence("object", [{"kind": "vibes", "label": "x",
                                        "box": NormBox(0.0, 0.3, 0.9, 0.8).to_json()}])

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
