"""Six-pair offline scenario: benchmark content, scripted replies, fixtures.

Three image-to-text and three text-to-image pairs, including the two
verification worked examples (the four-people beach scene and the misspelled
'worlld' car). Every model reply and tool result is scripted here;
``materialize_fixtures`` replays the pipeline once per method, and once per
tool switched off, with recording backends through an ordinary cache, which
is the fixture store that ``detect --backend mock`` replays.

Standalone use:

    python3 tests/e2e_scenario.py --out /tmp/halodet-e2e

writes ``bench.json``, ``demos.json``, and the ``mock/`` fixture store.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from halodet.bench import BenchmarkFile, save
from halodet.cache import DiskCache
from halodet.gateway import ModelGateway
from halodet.hashing import sha256_text
from halodet.model import (
    AttributeEvidence,
    Claim,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    NormBox,
    ObjectEvidence,
    SceneTextEvidence,
    Segment,
    TaskType,
)
from halodet.stages import DetectionMethod, SelfCheckDemo
from halodet.model import Verdict
from halodet.tools import (
    REPLAY_IDS,
    FactSnippet,
    Replay,
    ToolBackendSet,
)

H = "hallucinatory"
NH = "non-hallucinatory"

OBJ = HallucinationCategory.OBJECT
ATTR = HallucinationCategory.ATTRIBUTE
SCN = HallucinationCategory.SCENE_TEXT
FCT = HallucinationCategory.FACT


def image(name: str) -> ImageRef:
    """Synthetic image identity; no pixel file exists (digest-only mode)."""
    return ImageRef(path=f"images/{name}.jpg", digest=sha256_text(f"image-bytes:{name}"))


def _box(x1, y1, x2, y2) -> NormBox:
    return NormBox(x1, y1, x2, y2)


@dataclass
class PairScript:
    pair: ImageTextPair
    object_reply: str
    attribute_reply: str
    scene_reply: str
    fact_reply: str
    verify_reply: str
    self_check_reply: str
    detections: list[ObjectEvidence] = field(default_factory=list)
    scene_lines: list[SceneTextEvidence] = field(default_factory=list)
    attribute_answers: dict[str, str] = field(default_factory=dict)
    fact_results: dict[str, list[FactSnippet]] = field(default_factory=dict)
    # (label, rationale substring) per claim, in index order
    expected: list[tuple[str, str]] = field(default_factory=list)


def _verdict_json(entries: list[tuple[int, str, str]]) -> str:
    wire = [{"claim%d" % i: label, "reason": reason} for i, label, reason in entries]
    return json.dumps(wire, ensure_ascii=False)


def _claims(*specs) -> tuple[Claim, ...]:
    claims = []
    for i, (text, label, cats, seg) in enumerate(specs, start=1):
        claims.append(Claim(
            index=i, text=text, gold_label=Label(label),
            gold_categories=frozenset(cats) if cats else None,
            segment_id=seg,
        ))
    return tuple(claims)


def build_scripts() -> list[PairScript]:
    scripts = []

    # 1. beach (image captioning): the four-people verification example.
    beach = ImageTextPair(
        id="i2t-beach", task=TaskType.IMAGE_CAPTIONING, image=image("beach"),
        text="The picture shows five people swimming. On the beach, there is a "
             "chair, a umbrella, and a surfboard. The green umbrella is on the "
             "right side of the chair.",
        claims=_claims(
            ("The picture shows five people swimming.", H, {OBJ}, "S1"),
            ("On the beach, there is a chair, a umbrella, and a surfboard.", H, {OBJ}, "S2"),
            ("The green umbrella is on the right side of the chair.", NH, None, "S2"),
        ),
        segments=(
            Segment(id="S1", text="The picture shows five people swimming.",
                    claim_indices=(1,)),
            Segment(id="S2", text="On the beach, there is a chair, a umbrella, and a "
                                  "surfboard. The green umbrella is on the right side "
                                  "of the chair.", claim_indices=(2, 3)),
        ),
    )
    scripts.append(PairScript(
        pair=beach,
        object_reply='{"claim1":"people","claim2":"chair.umbrella.surfboard",'
                     '"claim3":"umbrella.chair"}',
        attribute_reply='{"claim1":["none"],"claim2":["none"],"claim3":["none"]}',
        scene_reply='{"claim1":["none"],"claim2":["none"],"claim3":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["none"],"claim3":["none"]}',
        verify_reply=_verdict_json([
            (1, "hallucination",
             "The object detection expert model identified four people, not five "
             "people. Based on the image information, they might be swimming. "
             "Therefore, there's a hallucination."),
            (2, "hallucination",
             "According to the results of the object detection expert model and my "
             "judgment, there are two chairs and an umbrella in the picture, but "
             "there is no surfboard. Therefore, there's a hallucination."),
            (3, "non-hallucination",
             "Based on the positional information of the bounding boxes and my "
             "judgment, the umbrella is to the right of the chairs. The umbrella "
             "is green. Therefore, there's no hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "hallucination", "I count four people in the water, not five."),
            (2, "hallucination", "I see no surfboard on the beach."),
            (3, "non-hallucination", "The green umbrella is right of the chairs."),
        ]),
        detections=[
            ObjectEvidence("people", _box(0.345, 0.424, 0.408, 0.509)),
            ObjectEvidence("people", _box(0.197, 0.44, 0.28, 0.514)),
            ObjectEvidence("people", _box(0.517, 0.315, 0.561, 0.401)),
            ObjectEvidence("people", _box(0.441, 0.356, 0.47, 0.405)),
            ObjectEvidence("chair", _box(0.398, 0.595, 0.637, 0.901)),
            ObjectEvidence("chair", _box(0.621, 0.592, 0.789, 0.889)),
            ObjectEvidence("umbrella", _box(0.501, 0.334, 0.968, 0.88)),
        ],
        expected=[
            (H, "identified four people, not five"),
            (H, "no surfboard"),
            (NH, "umbrella is green"),
        ],
    ))

    # 2. athlete (VQA): attribute routing with self-reflective answering.
    athlete = ImageTextPair(
        id="i2t-athlete", task=TaskType.VQA, image=image("athlete"),
        text="The athlete on the right side is wearing a blue uniform. Two "
             "athletes are competing on the field.",
        claims=_claims(
            ("The athlete on the right side is wearing a blue uniform.", H, {ATTR}, "S1"),
            ("Two athletes are competing on the field.", NH, None, "S2"),
        ),
        segments=(
            Segment(id="S1", text="The athlete on the right side is wearing a blue "
                                  "uniform.", claim_indices=(1,)),
            Segment(id="S2", text="Two athletes are competing on the field.",
                    claim_indices=(2,)),
        ),
    )
    uniform_q = "What color is the uniform of the athlete on the right side?"
    scripts.append(PairScript(
        pair=athlete,
        object_reply='{"claim1":"athlete.uniform","claim2":"athlete"}',
        attribute_reply=json.dumps({"claim1": [uniform_q], "claim2": ["none"]}),
        scene_reply='{"claim1":["none"],"claim2":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["none"]}',
        verify_reply=_verdict_json([
            (1, "hallucination",
             "The attribute detection expert model answered that the uniform of the "
             "athlete on the right side is red, while the claim says blue. "
             "Therefore, there's a hallucination."),
            (2, "non-hallucination",
             "The object detection expert model identified two athletes. "
             "Therefore, there's no hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "hallucination", "The uniform looks red to me, not blue."),
            (2, "non-hallucination", "Two athletes are visible."),
        ]),
        detections=[
            ObjectEvidence("athlete", _box(0.12, 0.2, 0.45, 0.9)),
            ObjectEvidence("athlete", _box(0.55, 0.18, 0.88, 0.92)),
            ObjectEvidence("uniform", _box(0.15, 0.3, 0.42, 0.7)),
            ObjectEvidence("uniform", _box(0.58, 0.28, 0.85, 0.72)),
        ],
        attribute_answers={
            uniform_q: "The uniform of the athlete on the right side is red.",
        },
        expected=[
            (H, "red, while the claim says blue"),
            (NH, "two athletes"),
        ],
    ))

    # 3. huawei (image captioning): scene text plus external knowledge.
    huawei = ImageTextPair(
        id="i2t-huawei", task=TaskType.IMAGE_CAPTIONING, image=image("huawei"),
        text="The image shows a black phone. The phone has the word 'HUAWEI' "
             "printed on it. Huawei is a company located in Shanghai, China.",
        claims=_claims(
            ("The image shows a black phone.", NH, None, None),
            ("The phone has the word 'HUAWEI' printed on it.", NH, None, None),
            ("Huawei is a company located in Shanghai, China.", H, {FCT}, None),
        ),
    )
    scripts.append(PairScript(
        pair=huawei,
        object_reply='{"claim1":"phone","claim2":"phone","claim3":"none"}',
        attribute_reply='{"claim1":["What color is the phone?"],"claim2":["none"],'
                        '"claim3":["none"]}',
        scene_reply='{"claim1":["none"],"claim2":["What word is printed on the '
                    'phone?"],"claim3":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["none"],"claim3":["Where is Huawei '
                   'headquartered?", "Huawei company"]}',
        verify_reply=_verdict_json([
            (1, "non-hallucination",
             "The object detection expert model identified a phone and the attribute "
             "detection expert model confirmed it is black. Therefore, there's no "
             "hallucination."),
            (2, "non-hallucination",
             "The scene text recognition expert model read 'HUAWEI' on the phone. "
             "Therefore, there's no hallucination."),
            (3, "hallucination",
             "The external knowledge states that Huawei is headquartered in "
             "Shenzhen, not Shanghai. Therefore, there's a hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "non-hallucination", "A black phone is visible."),
            (2, "non-hallucination", "The phone reads HUAWEI."),
            (3, "hallucination", "Huawei is based in Shenzhen, not Shanghai."),
        ]),
        detections=[ObjectEvidence("phone", _box(0.3, 0.25, 0.7, 0.8))],
        scene_lines=[SceneTextEvidence("HUAWEI", _box(0.42, 0.3, 0.58, 0.38))],
        attribute_answers={"What color is the phone?": "The phone is black."},
        fact_results={
            "Where is Huawei headquartered?": [
                FactSnippet("Huawei", "Huawei Technologies Co., Ltd. is headquartered "
                                      "in Shenzhen, Guangdong.", "https://example.org/huawei"),
                FactSnippet("Company profile", "Huawei's global headquarters are in "
                                               "Shenzhen, China.", "https://example.org/profile"),
                FactSnippet("News", "From its Shenzhen campus, Huawei operates "
                                    "worldwide.", "https://example.org/news"),
            ],
            "Huawei company": [
                FactSnippet("About Huawei", "Founded in 1987 in Shenzhen.",
                            "https://example.org/about"),
                FactSnippet("Overview", "A Chinese multinational based in Shenzhen.",
                            "https://example.org/overview"),
            ],
        },
        expected=[
            (NH, "confirmed it is black"),
            (NH, "read 'HUAWEI'"),
            (H, "Shenzhen, not Shanghai"),
        ],
    ))

    # 4. car (text-to-image): the misspelled scene-text verification example.
    car = ImageTextPair(
        id="t2i-car", task=TaskType.TEXT_TO_IMAGE, image=image("car"),
        text="The side of the car reads 'Hello World'. A boy is playing a yellow "
             "basketball beside a plant.",
        claims=_claims(
            ("The side of the car reads 'Hello World'", H, {SCN}, "S1"),
            ("A boy is playing a yellow basketball beside a plant.", H, {OBJ}, "S2"),
        ),
        segments=(
            Segment(id="S1", text="The side of the car reads 'Hello World'.",
                    claim_indices=(1,)),
            Segment(id="S2", text="A boy is playing a yellow basketball beside a "
                                  "plant.", claim_indices=(2,)),
        ),
    )
    scripts.append(PairScript(
        pair=car,
        object_reply='{"claim1":"car","claim2":"boy.basketball.plant"}',
        attribute_reply='{"claim1":["none"],"claim2":["none"]}',
        scene_reply='{"claim1":["What does the side of the car say?"],'
                    '"claim2":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["none"]}',
        verify_reply=_verdict_json([
            (1, "hallucination",
             "The object detection model has identified a car in the image. However, "
             "based on the detection results of the scene text expert model and my "
             "judgment, the text in the image is 'hello worlld' not 'hello world'. "
             "Therefore, there's a hallucination."),
            (2, "hallucination",
             "The object detection model has identified a boy and a basketball in "
             "the image. And the boy is visible in the image playing with a yellow "
             "basketball. But according to the detection results of the object "
             "detection expert model and my judgment, there's no plant. Therefore, "
             "there's a hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "hallucination", "The writing on the car is misspelled."),
            (2, "hallucination", "There is no plant next to the boy."),
        ]),
        detections=[
            ObjectEvidence("basketball", _box(0.741, 0.179, 0.848, 0.285)),
            ObjectEvidence("boy", _box(0.773, 0.299, 0.98, 0.828)),
            ObjectEvidence("car", _box(0.001, 0.304, 0.992, 0.854)),
        ],
        scene_lines=[SceneTextEvidence("worlld", _box(0.405, 0.504, 0.726, 0.7))],
        expected=[
            (H, "'hello worlld' not 'hello world'"),
            (H, "no plant"),
        ],
    ))

    # 5. apples (text-to-image): everything checks out.
    apples = ImageTextPair(
        id="t2i-apples", task=TaskType.TEXT_TO_IMAGE, image=image("apples"),
        text="Five red apples on a wooden table.",
        claims=_claims(
            ("There are five apples.", NH, None, "S1"),
            ("The apples are red.", NH, None, "S1"),
            ("The apples are on a wooden table.", NH, None, "S2"),
        ),
        segments=(
            Segment(id="S1", text="Five red apples", claim_indices=(1, 2)),
            Segment(id="S2", text="on a wooden table.", claim_indices=(3,)),
        ),
    )
    scripts.append(PairScript(
        pair=apples,
        object_reply='{"claim1":"apple","claim2":"apple","claim3":"apple.table"}',
        attribute_reply='{"claim1":["none"],"claim2":["What color are the apples?"],'
                        '"claim3":["none"]}',
        scene_reply='{"claim1":["none"],"claim2":["none"],"claim3":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["none"],"claim3":["none"]}',
        verify_reply=_verdict_json([
            (1, "non-hallucination",
             "The object detection expert model identified five apples. Therefore, "
             "there's no hallucination."),
            (2, "non-hallucination",
             "The attribute detection expert model answered that the apples are "
             "red. Therefore, there's no hallucination."),
            (3, "non-hallucination",
             "The object detection expert model identified a table under the "
             "apples. Therefore, there's no hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "non-hallucination", "Five apples are visible."),
            (2, "non-hallucination", "The apples look red."),
            (3, "non-hallucination", "They sit on a wooden table."),
        ]),
        detections=[
            ObjectEvidence("apple", _box(0.10, 0.40, 0.24, 0.55)),
            ObjectEvidence("apple", _box(0.28, 0.42, 0.42, 0.57)),
            ObjectEvidence("apple", _box(0.46, 0.41, 0.60, 0.56)),
            ObjectEvidence("apple", _box(0.64, 0.43, 0.78, 0.58)),
            ObjectEvidence("apple", _box(0.80, 0.40, 0.94, 0.55)),
            ObjectEvidence("table", _box(0.02, 0.5, 0.98, 0.95)),
        ],
        attribute_answers={"What color are the apples?": "The apples are red."},
        expected=[
            (NH, "five apples"),
            (NH, "apples are red"),
            (NH, "table"),
        ],
    ))

    # 6. eiffel (text-to-image): factual conflict resolved by search.
    eiffel = ImageTextPair(
        id="t2i-eiffel", task=TaskType.TEXT_TO_IMAGE, image=image("eiffel"),
        text="The Eiffel Tower stands in Berlin at sunset.",
        claims=_claims(
            ("The image shows the Eiffel Tower.", NH, None, "S1"),
            ("The Eiffel Tower is located in Berlin.", H, {FCT}, "S2"),
        ),
        segments=(
            Segment(id="S1", text="The Eiffel Tower", claim_indices=(1,)),
            Segment(id="S2", text="stands in Berlin at sunset.", claim_indices=(2,)),
        ),
    )
    scripts.append(PairScript(
        pair=eiffel,
        object_reply='{"claim1":"tower","claim2":"none"}',
        attribute_reply='{"claim1":["none"],"claim2":["none"]}',
        scene_reply='{"claim1":["none"],"claim2":["none"]}',
        fact_reply='{"claim1":["none"],"claim2":["Where is the Eiffel Tower '
                   'located?", "Eiffel Tower city"]}',
        verify_reply=_verdict_json([
            (1, "non-hallucination",
             "The object detection expert model identified a tower matching the "
             "Eiffel Tower. Therefore, there's no hallucination."),
            (2, "hallucination",
             "The external knowledge confirms the Eiffel Tower is in Paris, not "
             "Berlin. Therefore, there's a hallucination."),
        ]),
        self_check_reply=_verdict_json([
            (1, "non-hallucination", "The Eiffel Tower is visible."),
            (2, "hallucination", "The Eiffel Tower is in Paris."),
        ]),
        detections=[ObjectEvidence("tower", _box(0.35, 0.1, 0.65, 0.95))],
        fact_results={
            "Where is the Eiffel Tower located?": [
                FactSnippet("Eiffel Tower", "The Eiffel Tower is on the Champ de "
                                            "Mars in Paris, France.", "https://example.org/eiffel"),
                FactSnippet("Travel guide", "Paris's most famous landmark.",
                            "https://example.org/guide"),
            ],
            "Eiffel Tower city": [
                FactSnippet("Facts", "Located in the 7th arrondissement of Paris.",
                            "https://example.org/facts"),
            ],
        },
        expected=[
            (NH, "tower matching the Eiffel Tower"),
            (H, "Paris, not Berlin"),
        ],
    ))

    return scripts


def build_benchmark() -> BenchmarkFile:
    return BenchmarkFile(
        version="mhalubench.v1",
        pairs=tuple(script.pair for script in build_scripts()),
        provenance={"source": "scripted offline scenario"},
    )


EXPECTED_VERDICTS = {
    script.pair.id: script.expected for script in build_scripts()
}


def build_demos() -> list[SelfCheckDemo]:
    return [
        SelfCheckDemo(
            image=image("demo-dog"),
            claims=("There is a dog in the image.", "The dog is green."),
            verdicts=(
                Verdict(claim_index=1, label=Label.NON_HALLUCINATORY,
                        rationale="A dog is clearly visible."),
                Verdict(claim_index=2, label=Label.HALLUCINATORY,
                        rationale="The dog is brown, not green."),
            ),
        ),
        SelfCheckDemo(
            image=image("demo-kitchen"),
            claims=("A chef stands in a kitchen.",),
            verdicts=(
                Verdict(claim_index=1, label=Label.NON_HALLUCINATORY,
                        rationale="The kitchen and the chef are both visible."),
            ),
        ),
    ]


def demos_json() -> list[dict]:
    return [
        {
            "image": demo.image.to_json(),
            "claims": list(demo.claims),
            "verdicts": [
                {"label": v.label.value, "reason": v.rationale} for v in demo.verdicts
            ],
        }
        for demo in build_demos()
    ]


# --- recording backends ------------------------------------------------------------
# Each carries the backend id of the replay that plays it back, so the cache
# entries a recording run writes are the entries the replays look up.


class RecordingModelBackend:
    """Answers from the scripts."""

    backend_id = REPLAY_IDS["model"]

    def __init__(self, scripts: list[PairScript]) -> None:
        self._scripts = scripts

    def _script_for(self, user_text: str) -> PairScript:
        # The pair under test is the one whose full rendered claim list sits
        # furthest down the prompt: templates embed worked examples of their
        # own, but the input section always comes last.
        from halodet.prompts import render_claim_list

        best_position = -1
        best = None
        for script in self._scripts:
            claims_text = render_claim_list([c.text for c in script.pair.claims])
            position = user_text.rfind(claims_text)
            if position > best_position:
                best_position = position
                best = script
        if best is None:
            raise AssertionError("prompt does not mention any scripted pair")
        return best

    def invoke(self, request) -> str:
        script = self._script_for(request.prompt.user)
        purpose = request.purpose_tag.value
        if purpose == "verify":
            reply = script.verify_reply
        elif purpose == "self-check":
            reply = script.self_check_reply
        elif purpose == "query-formulate":
            user = request.prompt.user
            if "object extractor" in request.prompt.system:
                reply = script.object_reply
            elif "questions about attributes" in user:
                reply = script.attribute_reply
            elif "questions about scene text" in user:
                reply = script.scene_reply
            elif "search engine questions" in user:
                reply = script.fact_reply
            else:
                raise AssertionError("unrecognized formulation prompt")
        else:
            raise AssertionError(f"unexpected purpose {purpose}")
        return reply


class RecordingDetector:
    backend_id = REPLAY_IDS["object_detector"]

    def __init__(self, scripts: list[PairScript]) -> None:
        self._by_digest = {s.pair.image.digest: s for s in scripts}

    def detect(self, image_ref, labels):
        return list(self._by_digest[image_ref.digest].detections)


class RecordingReader:
    backend_id = REPLAY_IDS["scene_text_reader"]

    def __init__(self, scripts: list[PairScript]) -> None:
        self._by_digest = {s.pair.image.digest: s for s in scripts}

    def read(self, image_ref):
        return list(self._by_digest[image_ref.digest].scene_lines)


class RecordingAnswerer:
    backend_id = REPLAY_IDS["attribute_answerer"]

    def __init__(self, scripts: list[PairScript]) -> None:
        self._by_digest = {s.pair.image.digest: s for s in scripts}

    def answer(self, image_ref, question):
        answer = self._by_digest[image_ref.digest].attribute_answers[question]
        return AttributeEvidence(question=question, answer=answer)


class RecordingSearcher:
    backend_id = REPLAY_IDS["fact_searcher"]

    def __init__(self, scripts: list[PairScript]) -> None:
        self._questions = {}
        for script in scripts:
            self._questions.update(script.fact_results)

    def search(self, question, top_k):
        return list(self._questions[question])[:top_k]


def materialize_fixtures(out_dir: str | Path) -> int:
    """Replay the scenario once per method through a cache at ``out_dir``.

    The cache is the mock fixture store; returns its entry count. A UniHD
    pass per tool switch, with that switch's slot holding the null tool,
    records the verification prompts an ablation run sends; their replies
    are the full-tool ones.
    """
    from halodet.config import TOOL_SWITCHES
    from halodet.executor import run_batch

    scripts = build_scripts()
    pairs = [script.pair for script in scripts]
    backends = ToolBackendSet(
        object_detector=RecordingDetector(scripts),
        attribute_answerer=RecordingAnswerer(scripts),
        scene_text_reader=RecordingReader(scripts),
        fact_searcher=RecordingSearcher(scripts),
    )
    gateway = ModelGateway(RecordingModelBackend(scripts), sleep=lambda _: None)
    store = DiskCache(out_dir)
    for method, tools, demos in (
        (DetectionMethod.UNIHD, backends, ()),
        (DetectionMethod.SELF_CHECK_0SHOT, backends, ()),
        (DetectionMethod.SELF_CHECK_2SHOT, backends, build_demos()),
        *[(DetectionMethod.UNIHD, replace(backends, **{slot: Replay(None, "null")}), ())
          for slot in TOOL_SWITCHES.values()],
    ):
        outcome = run_batch(pairs, method, tools, gateway, cache=store, width=1,
                            demonstrations=demos)
        if outcome.failures:
            failures = [(f.pair_id, f.message) for f in outcome.failures]
            raise AssertionError(f"scenario replay failed: {failures}")
    return store.entry_count()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save(build_benchmark(), out / "bench.json")
    (out / "demos.json").write_text(
        json.dumps(demos_json(), ensure_ascii=False, indent=2) + "\n", "utf-8")
    entries = materialize_fixtures(out / "mock")
    print(f"wrote benchmark, demos, and a mock fixture store of {entries} entries "
          f"under {out}")


if __name__ == "__main__":
    main()
