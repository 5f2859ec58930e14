"""Pipeline stages: parsers over the templates' own worked outputs, query
formulation routing, verification, and the self-check baselines."""

from __future__ import annotations

import json

import pytest

from conftest import TableBackend, drive, formulate_queries, image_ref, table_gateway
from halodet.errors import (
    ClaimCountMismatch,
    EmptyExtraction,
    MissingDemonstrations,
    UnknownLabel,
    UnparseableModelOutput,
)
from halodet.model import (
    Claim,
    EvidenceBundle,
    HallucinationCategory,
    ImageTextPair,
    Label,
    ParseFlag,
    TaskType,
)
from halodet.prompts import TemplateId
from halodet.stages import (
    SelfCheckDemo,
    extract_claims,
    formulate,
    label_union,
    parse_claim_query_map,
    parse_verdicts,
    self_check,
    verify,
)
from halodet.model import Verdict

OBJECT = HallucinationCategory.OBJECT
ATTRIBUTE = HallucinationCategory.ATTRIBUTE
SCENE = HallucinationCategory.SCENE_TEXT
FACT = HallucinationCategory.FACT

# Every example output the six templates print, as (raw, n_claims, kind).
TEMPLATE_EXAMPLE_OUTPUTS = [
    # object extraction
    ('{"claim1":"man","claim2":"man.motorcycle","claim3":"none", "claim4":"none"}', 4, OBJECT),
    ('{"claim1":"device","claim2":"device", "claim3":"none"}', 3, OBJECT),
    ('{"claim1":"man.shirt","claim2":"man","claim3":"man"}', 3, OBJECT),
    # attribute questions
    ('{"claim1":["What color is the dog?", "Is there a dog on the left in the image?"],'
     '"claim2":["What color are the cat?", "Are there two cats on the right in the image?"]}',
     2, ATTRIBUTE),
    # as printed, including the unquoted third entry
    ('{"claim1":["What is the man wearing?"], "claim2":["Does the man appear to be smoking?"], '
     '"claim3":[What color is the wall?]}', 3, ATTRIBUTE),
    ('{"claim1":["none"], "claim2":["What does the man wear?", "What color is the apron?"], '
     '"claim3":["Is the man standing in the middle of the kitchen?"], "claim4": ["none"]}',
     4, ATTRIBUTE),
    # scene-text questions
    ('{"claim1":["none"],"claim2":["What is the brand of the device in the image?"]}', 2, SCENE),
    ('{"claim1":["none"],"claim2":["What does the stop sign say in the image?"]}', 2, SCENE),
    ('{"claim1":["What are written on the car?"],"claim2":["none"]}', 2, SCENE),
    # fact questions
    ('{"claim1":["none"],"claim2":["none"],'
     '"claim3":["Where is Huawei headquartered?", "Huawei company"]}', 3, FACT),
    ('{"claim1":["none"],"claim2":["Who is the CEO of twitter?", "CEO Twitter"]}', 2, FACT),
    ('{"claim1":["none"],"claim2":["none"]}', 2, FACT),
]

VERIFY_I2T_EXAMPLE = json.dumps([
    {"claim1": "hallucination",
     "reason": "The object detection expert model identified four people, not five people. "
               "Based on the image information, they might be swimming. Therefore, there's "
               "a hallucination."},
    {"claim2": "hallucination",
     "reason": "According to the results of the object detection expert model and my "
               "judgment, there are two chairs and an umbrella in the picture, but there "
               "is no surfboard. Therefore, there's a hallucination."},
    {"claim3": "non-hallucination",
     "reason": "Based on the positional information of the bounding boxes and my judgment, "
               "the umbrella is to the right of the chairs. The umbrella is green. "
               "Therefore, there's no hallucination."},
])

VERIFY_T2I_EXAMPLE = json.dumps([
    {"claim1": "hallucination",
     "reason": "The object detection model has identified a car in the image. However, "
               "based on the detection results of the scene text expert model and my "
               "judgment, the text in the image is 'hello worlld' not 'hello world'. "
               "Therefore, there's a hallucination."},
    {"claim2": "hallucination",
     "reason": "The object detection model has identified a boy and a basketball in the "
               "image. And the boy is visible in the image playing with a yellow "
               "basketball. But according to the detection results of the object "
               "detection expert model and my judgment, there's no plant. Therefore, "
               "there's a hallucination."},
])


class TestParseClaimQueryMap:
    @pytest.mark.parametrize("raw, n, kind", TEMPLATE_EXAMPLE_OUTPUTS)
    def test_every_template_example_parses(self, raw, n, kind):
        result = parse_claim_query_map(raw, n, kind)
        assert set(result) == set(range(1, n + 1))

    def test_object_period_splitting(self):
        raw = '{"claim1":"man","claim2":"man.motorcycle","claim3":"none","claim4":"none"}'
        assert parse_claim_query_map(raw, 4, OBJECT) == {
            1: ["man"], 2: ["man", "motorcycle"], 3: [], 4: [],
        }

    def test_list_form_with_none(self):
        raw = '{"claim1":["none"],"claim2":["What is the brand of the device in the image?"]}'
        assert parse_claim_query_map(raw, 2, FACT) == {
            1: [], 2: ["What is the brand of the device in the image?"],
        }

    def test_claim_count_mismatch(self):
        with pytest.raises(ClaimCountMismatch) as exc_info:
            parse_claim_query_map('{"claim1":["q"]}', 2, FACT)
        assert exc_info.value.expected == 2
        assert exc_info.value.got == 1

    def test_none_normalization_is_lenient(self):
        raw = '{"claim1":" None ","claim2":["NONE"]}'
        assert parse_claim_query_map(raw, 2, OBJECT) == {1: [], 2: []}

    def test_not_a_mapping(self):
        with pytest.raises(UnparseableModelOutput):
            parse_claim_query_map('["man", "none"]', 2, OBJECT)

    def test_unexpected_key(self):
        with pytest.raises(UnparseableModelOutput):
            parse_claim_query_map('{"claim1":"man","other":"x"}', 1, OBJECT)


class TestParseVerdicts:
    def test_i2t_worked_example(self):
        verdicts = parse_verdicts(VERIFY_I2T_EXAMPLE, 3)
        assert [v.label for v in verdicts] == [
            Label.HALLUCINATORY, Label.HALLUCINATORY, Label.NON_HALLUCINATORY,
        ]
        assert all(v.rationale for v in verdicts)
        assert all(not v.parse_flags for v in verdicts)
        assert "identified four people, not five" in verdicts[0].rationale

    def test_t2i_worked_example(self):
        verdicts = parse_verdicts(VERIFY_T2I_EXAMPLE, 2)
        assert all(v.label is Label.HALLUCINATORY for v in verdicts)
        assert "'hello worlld' not 'hello world'" in verdicts[0].rationale

    def test_code_fences_set_repaired_flag(self):
        fenced = f"```json\n{VERIFY_I2T_EXAMPLE}\n```"
        verdicts = parse_verdicts(fenced, 3)
        plain = parse_verdicts(VERIFY_I2T_EXAMPLE, 3)
        assert [(v.claim_index, v.label, v.rationale) for v in verdicts] == \
               [(v.claim_index, v.label, v.rationale) for v in plain]
        assert all(ParseFlag.REPAIRED in v.parse_flags for v in verdicts)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel) as exc_info:
            parse_verdicts('[{"claim1":"maybe"}]', 1)
        assert exc_info.value.value == "maybe"

    def test_count_mismatch_never_truncates(self):
        with pytest.raises(ClaimCountMismatch):
            parse_verdicts(VERIFY_T2I_EXAMPLE, 3)

    def test_missing_reason(self):
        with pytest.raises(UnparseableModelOutput):
            parse_verdicts('[{"claim1":"hallucination"}]', 1)

    def test_unparseable(self):
        with pytest.raises(UnparseableModelOutput):
            parse_verdicts("the model rambled with no structure", 2)

    def test_out_of_order_entries_are_sorted(self):
        raw = json.dumps([
            {"claim2": "hallucination", "reason": "b"},
            {"claim1": "non-hallucination", "reason": "a"},
        ])
        verdicts = parse_verdicts(raw, 2)
        assert [v.claim_index for v in verdicts] == [1, 2]


# --- stage functions driven by scripted replies ---------------------------------------


def _pair(n_claims: int = 2, task: TaskType = TaskType.IMAGE_CAPTIONING) -> ImageTextPair:
    claims = tuple(Claim(index=i, text=f"claim text {i}") for i in range(1, n_claims + 1))
    return ImageTextPair(id="p1", task=task, image=image_ref("p1"),
                         text="some response text", claims=claims)


# --- malformed replies ---------------------------------------------------------------


def _verify_outcome(raw: str, n_claims: int) -> tuple[str, ...]:
    """verify() over a reply that comes back the same on its retry: "unverified"
    for each fallback verdict, "repaired" for each entry kept from the reply."""
    verdicts, requests = drive(verify(_pair(n_claims), EvidenceBundle()), lambda _: raw)
    assert len(requests) == 2
    assert [v.claim_index for v in verdicts] == list(range(1, n_claims + 1))
    outcome = []
    for v in verdicts:
        if v.parse_flags == {ParseFlag.UNVERIFIED}:
            assert (v.label, v.rationale) == (Label.NON_HALLUCINATORY, "")
            outcome.append("unverified")
        else:
            assert v.parse_flags == {ParseFlag.REPAIRED} and v.rationale
            outcome.append("repaired")
    return tuple(outcome)


def _read_reply(stage: str, raw: str, n_claims: int | None):
    if stage == "formulate":
        return parse_claim_query_map(raw, n_claims, FACT)
    if stage == "extract":
        return drive(extract_claims("A man rides."),
                     TableBackend([("claim extractor", raw)]).invoke)[0]
    if stage == "parse":
        return parse_verdicts(raw, n_claims)
    return _verify_outcome(raw, n_claims)


_V1 = '{"claim1":"hallucination","reason":"r1"}'
_V2 = '{"claim2":"non-hallucination","reason":"r2"}'
_V3 = '{"claim3":"hallucination","reason":"r3"}'

# (case, stage, reply, n_claims, the exact error class or the result);
# extraction takes no claim count.
MALFORMED_REPLIES = [
    ("not JSON", "formulate", "no structure at all", 1, UnparseableModelOutput),
    ("not JSON", "extract", "no structure at all", None, UnparseableModelOutput),
    ("not JSON", "parse", "no structure at all", 1, UnparseableModelOutput),
    ("not JSON", "verify", "no structure at all", 1, ("unverified",)),
    ("not a mapping", "formulate", '["q"]', 1, UnparseableModelOutput),
    ("not a mapping", "extract", '["A man rides."]', None, UnparseableModelOutput),
    ("not a list", "parse", "42", 1, UnparseableModelOutput),
    ("entry not a mapping", "parse", '["claim1"]', 1, UnparseableModelOutput),
    ("entry not a mapping", "verify", '["claim1"]', 1, ("unverified",)),
    ("bad claim key", "formulate", '{"claim1":["q"],"other":["x"]}', 1, UnparseableModelOutput),
    ("bad claim key", "extract", '{"claim1":"A man.","other":"x"}', None,
     UnparseableModelOutput),
    ("bad claim key", "parse", '[{"claim_1":"hallucination","reason":"r"}]', 1,
     UnparseableModelOutput),
    ("no claim key", "parse", '[{"label":"hallucination","reason":"r"}]', 1,
     UnparseableModelOutput),
    ("bad claim key", "verify", '[{"claim_1":"hallucination","reason":"r"}]', 1,
     ("unverified",)),
    ("claim01", "formulate", '{"claim01":["q"]}', 1, UnparseableModelOutput),
    ("claim01", "extract", '{"claim01":"A man."}', None, UnparseableModelOutput),
    ("claim01", "parse", '[{"claim01":"hallucination","reason":"r"}]', 1,
     UnparseableModelOutput),
    ("claim01", "verify", '[{"claim01":"hallucination","reason":"r"}]', 1, ("unverified",)),
    ("gap", "formulate", '{"claim1":["q"],"claim3":["q"]}', 3, ClaimCountMismatch),
    ("gap", "extract", '{"claim1":"A.","claim3":"C."}', None, UnparseableModelOutput),
    ("gap", "parse", f"[{_V1},{_V3}]", 3, ClaimCountMismatch),
    ("gap", "verify", f"[{_V1},{_V3}]", 3, ("repaired", "unverified", "repaired")),
    ("missing claim", "formulate", '{"claim1":["q"]}', 2, ClaimCountMismatch),
    ("missing claim", "extract", '{"claim2":"B."}', None, UnparseableModelOutput),
    ("missing claim", "parse", f"[{_V1}]", 2, ClaimCountMismatch),
    ("missing claim", "verify", f"[{_V1}]", 2, ("repaired", "unverified")),
    ("claim past the end", "formulate", '{"claim1":["q"],"claim2":["q"]}', 1,
     ClaimCountMismatch),
    ("claim past the end", "parse", f"[{_V1},{_V2}]", 1, ClaimCountMismatch),
    ("claim past the end", "verify", f"[{_V1},{_V2}]", 1, ("repaired",)),
    ("duplicate claim", "parse", f"[{_V1},{_V1}]", 1, ClaimCountMismatch),
    ("duplicate claim", "verify", f"[{_V1},{_V1}]", 1, ("repaired",)),
    ("extra field", "formulate", '{"claim1":["q"],"reason":"x"}', 1, UnparseableModelOutput),
    ("extra field", "extract", '{"claim1":"A man.","reason":"x"}', None,
     UnparseableModelOutput),
    ("extra field", "parse", '[{"claim1":"hallucination","reason":"r","score":1}]', 1,
     UnparseableModelOutput),
    ("two claim keys", "parse",
     '[{"claim1":"hallucination","claim2":"hallucination","reason":"r"}]', 2,
     UnparseableModelOutput),
    ("extra field", "verify", f'[{_V1[:-1]},"score":1}},{_V2}]', 2, ("unverified", "repaired")),
    ("non-string entry", "formulate", '{"claim1":3}', 1, UnparseableModelOutput),
    ("non-string item", "formulate", '{"claim1":["q",3]}', 1, UnparseableModelOutput),
    ("unknown label", "parse", '[{"claim1":"maybe","reason":"r"}]', 1, UnknownLabel),
    ("non-string label", "parse", '[{"claim1":true,"reason":"r"}]', 1, UnknownLabel),
    ("unknown label", "verify", '[{"claim1":"maybe","reason":"r"}]', 1, ("unverified",)),
    ("empty reason", "parse", '[{"claim1":"hallucination","reason":" "}]', 1,
     UnparseableModelOutput),
    ("missing reason", "parse", '[{"claim1":"hallucination"}]', 1, UnparseableModelOutput),
    ("empty reason", "verify", '[{"claim1":"hallucination","reason":""}]', 1,
     ("unverified",)),
    ("zero claims", "formulate", "{}", 1, ClaimCountMismatch),
    ("no claims asked", "formulate", "{}", 0, ValueError),
    ("zero claims", "extract", "{}", None, EmptyExtraction),
    ("zero claims", "parse", "[]", 1, ClaimCountMismatch),
    ("no claims asked", "parse", "[]", 0, ValueError),
    ("zero claims", "verify", "[]", 1, ("unverified",)),
    ("claims all empty", "formulate", '{"claim1":["none"," "]}', 1, {1: []}),
    ("claims all empty", "extract", '{"claim1":" ","claim2":""}', None, EmptyExtraction),
    ("one blank claim", "extract", '{"claim1":" ","claim2":"B."}', None, [Claim(1, "B.")]),
    ("one object", "parse", _V1, 1, [Verdict(1, Label.HALLUCINATORY, "r1")]),
    ("null claim", "extract", '{"claim1":null}', None, UnparseableModelOutput),
    ("list claim", "extract", '{"claim1":"A man.","claim2":["x"]}', None,
     UnparseableModelOutput),
    ("number claim", "extract", '{"claim1":"A man.","claim2":"B.","claim3":7}', None,
     UnparseableModelOutput),
    ("claims all empty", "parse", '[{"claim1":"","reason":""}]', 1, UnknownLabel),
    ("claims all empty", "verify", '[{"claim1":"","reason":""}]', 1, ("unverified",)),
]


@pytest.mark.parametrize("case, stage, raw, n_claims, expected", MALFORMED_REPLIES,
                         ids=[f"{stage}-{case}" for case, stage, *_ in MALFORMED_REPLIES])
def test_a_malformed_reply_has_one_pinned_outcome(case, stage, raw, n_claims, expected):
    if isinstance(expected, type):
        with pytest.raises(expected) as exc_info:
            _read_reply(stage, raw, n_claims)
        assert type(exc_info.value) is expected
    else:
        assert _read_reply(stage, raw, n_claims) == expected




def test_extract_claims_round_trip():
    table = TableBackend([
        ("claim extractor", '{"claim1":"A man rides.","claim2":"The bike is red."}'),
    ])
    claims, _ = drive(extract_claims("A man rides a red bike."), table.invoke)
    assert [c.index for c in claims] == [1, 2]
    assert claims[1].text == "The bike is red."


def test_extract_claims_empty_text():
    with pytest.raises(EmptyExtraction):
        drive(extract_claims("   "), [])


def test_extract_claims_zero_claims():
    table = TableBackend([("claim extractor", "{}")])
    with pytest.raises(EmptyExtraction):
        drive(extract_claims("text"), table.invoke)


def test_formulate_queries_merges_and_routes():
    gateway = table_gateway([
        ("object extractor",
         '{"claim1":"athlete.uniform","claim2":"none"}'),
        ("questions about attributes",
         '{"claim1":["What color is the uniform of the athlete on the right side?"],'
         '"claim2":["none"]}'),
        ("questions about scene text", '{"claim1":["none"],"claim2":["none"]}'),
        ("search engine questions", '{"claim1":["none"],"claim2":["none"]}'),
    ])
    plan = formulate_queries(_pair(2), gateway)
    assert len(plan.per_claim) == 2
    assert plan.per_claim[0].object_labels == ("athlete", "uniform")
    assert plan.per_claim[0].attribute_questions == (
        "What color is the uniform of the athlete on the right side?",
    )
    assert plan.per_claim[0].scene_text_questions == ()
    assert plan.per_claim[0].fact_questions == ()
    assert plan.per_claim[1] == plan.per_claim[1].__class__()
    assert label_union(q.object_labels for q in plan.per_claim) == ["athlete", "uniform"]
    assert gateway.backend.calls == 4


def test_formulate_queries_all_none_plan():
    gateway = table_gateway([
        ("object extractor", '{"claim1":"none"}'),
        ("questions about attributes", '{"claim1":["none"]}'),
        ("questions about scene text", '{"claim1":["none"]}'),
        ("search engine questions", '{"claim1":["none"]}'),
    ])
    plan = formulate_queries(_pair(1), gateway)
    assert label_union(q.object_labels for q in plan.per_claim) == []
    assert not any(q.scene_text_questions for q in plan.per_claim)
    assert all(queries == queries.__class__() for queries in plan.per_claim)


def test_formulate_queries_object_labels_lowercased_and_deduped():
    gateway = table_gateway([
        ("object extractor", '{"claim1":"Man.man.Motorcycle"}'),
        ("questions about attributes", '{"claim1":["none"]}'),
        ("questions about scene text", '{"claim1":["none"]}'),
        ("search engine questions", '{"claim1":["none"]}'),
    ])
    plan = formulate_queries(_pair(1), gateway)
    assert plan.per_claim[0].object_labels == ("man", "motorcycle")


def test_formulate_queries_tags_failing_template():
    from halodet.prompts import TemplateId

    gateway = table_gateway([
        ("object extractor", "not parseable at all"),
        ("questions about attributes", '{"claim1":["none"]}'),
        ("questions about scene text", '{"claim1":["none"]}'),
        ("search engine questions", '{"claim1":["none"]}'),
    ])
    with pytest.raises(UnparseableModelOutput) as exc_info:
        formulate_queries(_pair(1), gateway)
    assert exc_info.value.template_id is TemplateId.OBJECT_QUERY


def test_verify_picks_template_by_direction():
    reply = json.dumps([{"claim1": "non-hallucination", "reason": "fine"},
                        {"claim2": "non-hallucination", "reason": "fine"}])
    _, first = drive(verify(_pair(2, TaskType.VQA), EvidenceBundle()), [reply])
    _, second = drive(verify(_pair(2, TaskType.TEXT_TO_IMAGE), EvidenceBundle()), [reply])
    seen = [r.prompt.user.split("\n", 1)[0] for r in first + second]
    assert "Multimodal Large Language Models" in seen[0]
    assert "human prompts" in seen[1]


def test_verify_empty_evidence_renders_none_information():
    reply = json.dumps([{"claim1": "non-hallucination", "reason": "fine"},
                        {"claim2": "non-hallucination", "reason": "fine"}])
    verdicts, requests = drive(verify(_pair(2), EvidenceBundle()), [reply])
    input_section = requests[0].prompt.user.split("<Input>:")[1]
    assert input_section.count("none information") == 4
    assert all(v.label is Label.NON_HALLUCINATORY for v in verdicts)


def test_verify_degrades_after_retry():
    verdicts, requests = drive(verify(_pair(2), EvidenceBundle()),
                               lambda _: "still not json, twice")
    assert len(requests) == 2
    assert requests[1] is requests[0]  # the retry is the same request
    assert len(verdicts) == 2
    assert all(v.label is Label.NON_HALLUCINATORY for v in verdicts)
    assert all(ParseFlag.UNVERIFIED in v.parse_flags for v in verdicts)


def test_verify_salvages_partial_entries():
    broken = ('[{"claim1":"hallucination","reason":"solid"},'
              '{"claim2":"maybe","reason":"bad label"}]')
    verdicts, _ = drive(verify(_pair(2), EvidenceBundle()), lambda _: broken)
    assert verdicts[0].label is Label.HALLUCINATORY
    assert ParseFlag.REPAIRED in verdicts[0].parse_flags
    assert ParseFlag.UNVERIFIED in verdicts[1].parse_flags


def _demo(name: str) -> SelfCheckDemo:
    return SelfCheckDemo(
        image=image_ref(name),
        claims=("There is a dog.", "The dog is green."),
        verdicts=(
            Verdict(claim_index=1, label=Label.NON_HALLUCINATORY, rationale="A dog is visible."),
            Verdict(claim_index=2, label=Label.HALLUCINATORY, rationale="The dog is brown."),
        ),
    )


def test_self_check_0shot():
    reply = json.dumps([{"claim1": "hallucination", "reason": "conflict"},
                        {"claim2": "non-hallucination", "reason": "fine"}])
    table = TableBackend([("no external tool evidence", reply)])
    verdicts, _ = drive(self_check(_pair(2), 0), table.invoke)
    assert [v.label for v in verdicts] == [Label.HALLUCINATORY, Label.NON_HALLUCINATORY]
    again, _ = drive(self_check(_pair(2), 0), table.invoke)
    assert again == verdicts


def test_self_check_2shot_requires_demos():
    with pytest.raises(MissingDemonstrations):
        drive(self_check(_pair(2), 2, demonstrations=[_demo("d1")]), [])


def test_self_check_2shot_binds_demos_and_images():
    reply = json.dumps([{"claim1": "non-hallucination", "reason": "fine"},
                        {"claim2": "non-hallucination", "reason": "fine"}])
    _, requests = drive(self_check(_pair(2), 2, demonstrations=[_demo("d1"), _demo("d2")]),
                        [reply])
    prompt = requests[0].prompt
    assert "Here are two complete examples:" in prompt.user
    assert prompt.user.count("(Image Entered)") == 3
    assert "The dog is brown." in prompt.user
    assert len(prompt.attachments) == 3  # two demos + the pair under test


def test_self_check_rejects_other_shot_counts():
    with pytest.raises(ValueError):
        drive(self_check(_pair(1), 1), [])


@pytest.mark.parametrize("stage", [
    lambda pair: formulate(pair, TemplateId.OBJECT_QUERY, (), "claim1: x"),
    lambda pair: verify(pair, EvidenceBundle()),
    lambda pair: self_check(pair, 0),
])
def test_a_pair_with_no_claims_is_refused_before_any_call(stage):
    with pytest.raises(ValueError, match="pair 'p1' has no claims"):
        drive(stage(_pair(0)), [])


def test_a_demo_needs_one_verdict_per_claim():
    demo = _demo("d1")
    with pytest.raises(ValueError, match="demo needs one verdict per claim"):
        SelfCheckDemo(demo.image, demo.claims + ("A third claim.",), demo.verdicts)


@pytest.mark.parametrize("key", ["claims", "claim01", "claim_1"])
def test_a_malformed_claim_key_degrades_the_pair(key):
    # A key that starts with "claim" but is not a claim key is unparseable
    # output: retried once, then salvaged, never the pair's error.
    from halodet.executor import run_batch
    from halodet.stages import DetectionMethod

    gateway = table_gateway([("", json.dumps([{key: "hallucination", "reason": "r"}]))])
    outcome = run_batch([_pair(1)], DetectionMethod.SELF_CHECK_0SHOT, None, gateway)
    assert not outcome.failures
    assert gateway.backend.calls == 2
    [result] = outcome.results
    assert result.degraded
    assert all(ParseFlag.UNVERIFIED in v.parse_flags for v in result.verdicts)
