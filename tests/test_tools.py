"""Tool contracts: ordering, vocabulary filtering, evidence formatting, replay."""

from __future__ import annotations

import random

import pytest

from conftest import ScriptedModelBackend, image_ref
from halodet.cache import CacheKey, DiskCache
from halodet.errors import BackendError, InvalidImage
from halodet.gateway import ModelGateway, ModelRequest, request_digest
from halodet.model import (
    AttributeEvidence,
    EvidenceBundle,
    FactEvidence,
    ImageRef,
    NormBox,
    ObjectEvidence,
    SceneTextEvidence,
)
from halodet.prompts import RenderedPrompt
from halodet.tools import (
    FACT_BLOCK_CHAR_LIMIT,
    FACT_TOP_K,
    NONE_INFORMATION,
    REPLAY_IDS,
    FactSnippet,
    GatewayAttributeAnswerer,
    Replay,
    answer_attribute,
    detect_objects,
    fact_snippet_line,
    format_box,
    format_evidence_sections,
    format_float,
    read_scene_text,
    search_facts,
)


class _ListDetector:
    backend_id = "listed"

    def __init__(self, items):
        self.items = items

    def detect(self, image, labels):
        return list(self.items)


class _ListReader:
    backend_id = "listed"

    def __init__(self, items):
        self.items = items

    def read(self, image):
        return list(self.items)


class TestDetectObjects:
    def test_vocabulary_filter_is_case_insensitive(self):
        items = [
            ObjectEvidence("Athlete", NormBox(0.1, 0.1, 0.2, 0.2)),
            ObjectEvidence("referee", NormBox(0.3, 0.3, 0.4, 0.4)),
        ]
        out = detect_objects(_ListDetector(items), image_ref("a"), ["athlete"])
        assert [e.label for e in out] == ["Athlete"]

    def test_sorted_and_deduplicated(self):
        base = [
            ObjectEvidence("people", NormBox(0.517, 0.315, 0.561, 0.401)),
            ObjectEvidence("chair", NormBox(0.621, 0.592, 0.789, 0.889)),
            ObjectEvidence("people", NormBox(0.197, 0.44, 0.28, 0.514)),
            ObjectEvidence("chair", NormBox(0.398, 0.595, 0.637, 0.901)),
            ObjectEvidence("people", NormBox(0.197, 0.44, 0.28, 0.514)),  # dup
        ]
        rng = random.Random(7)
        orders = []
        for _ in range(5):
            shuffled = base[:]
            rng.shuffle(shuffled)
            out = detect_objects(_ListDetector(shuffled), image_ref("a"),
                                 ["people", "chair"])
            orders.append(out)
        assert all(order == orders[0] for order in orders)
        assert [e.label for e in orders[0]] == ["chair", "chair", "people", "people"]
        assert orders[0][0].box.x1 == 0.398

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            detect_objects(_ListDetector([]), image_ref("a"), [])

    def test_invalid_box_is_loud(self):
        items = [ObjectEvidence("cat", NormBox(0.9, 0.1, 0.2, 0.2))]
        with pytest.raises(ValueError):
            detect_objects(_ListDetector(items), image_ref("a"), ["cat"])

    def test_an_invalid_box_names_the_detector(self):
        items = [ObjectEvidence("cat", NormBox(0.9, 0.1, 0.2, 0.2))]
        with pytest.raises(ValueError) as exc_info:
            detect_objects(_ListDetector(items), image_ref("a"), ["cat"])
        assert str(exc_info.value) == ("detector returned an invalid box: "
                                       "NormBox(x1=0.9, y1=0.1, x2=0.2, y2=0.2)")

    def test_an_unrequested_label_is_dropped_before_its_box_is_checked(self):
        items = [ObjectEvidence("dog", NormBox(0.9, 0.1, 0.2, 0.2)),
                 ObjectEvidence("cat", NormBox(0.1, 0.1, 0.2, 0.2))]
        out = detect_objects(_ListDetector(items), image_ref("a"), ["cat"])
        assert out == [items[1]]


class TestSceneText:
    def test_reading_order_sort(self):
        items = [
            SceneTextEvidence("below", NormBox(0.1, 0.6, 0.5, 0.7)),
            SceneTextEvidence("right", NormBox(0.6, 0.1, 0.9, 0.2)),
            SceneTextEvidence("left", NormBox(0.1, 0.1, 0.4, 0.2)),
        ]
        out = read_scene_text(_ListReader(items), image_ref("a"))
        assert [e.text for e in out] == ["left", "right", "below"]

    def test_an_invalid_box_names_the_reader(self):
        items = [SceneTextEvidence("EXIT", NormBox(0.1, 0.5, 0.4, 0.5))]
        with pytest.raises(ValueError) as exc_info:
            read_scene_text(_ListReader(items), image_ref("a"))
        assert str(exc_info.value) == ("scene-text reader returned an invalid box: "
                                       "NormBox(x1=0.1, y1=0.5, x2=0.4, y2=0.5)")

    def test_mock_scripted_invalid_image(self):
        class BrokenReader:
            backend_id = "broken"

            def read(self, image):
                raise InvalidImage("unreadable image")

        with pytest.raises(InvalidImage):
            read_scene_text(BrokenReader(), image_ref("broken"))

    def test_mock_no_text_means_empty(self, tmp_path):
        reader = Replay(DiskCache(tmp_path), REPLAY_IDS["scene_text_reader"])
        assert read_scene_text(reader, image_ref("blank")) == []


class TestFactSearch:
    def _snippets(self, n):
        return [FactSnippet(f"title {i}", f"snippet {i}", f"https://x/{i}")
                for i in range(n)]

    def test_top_k_truncation(self):
        class Provider:
            backend_id = "p"

            def __init__(self, items):
                self.items = items

            def search(self, question, top_k):
                self.top_k = top_k
                return list(self.items)

        provider = Provider(self._snippets(5))
        assert search_facts(provider, "q") == self._snippets(FACT_TOP_K)
        assert provider.top_k == FACT_TOP_K == 3

    def test_provider_order_preserved(self, tmp_path):
        lines = [fact_snippet_line(s) for s in self._snippets(3)]
        store = DiskCache(tmp_path)
        store.put(CacheKey.fact_search("q", REPLAY_IDS["fact_searcher"]),
                  FactEvidence("q", tuple(lines)).to_json())
        out = search_facts(Replay(store, REPLAY_IDS["fact_searcher"]), "q")
        assert [fact_snippet_line(s) for s in out] == lines
        assert lines[0] == "title 0: snippet 0 (https://x/0)"

    def test_zero_hits(self, tmp_path):
        searcher = Replay(DiskCache(tmp_path), REPLAY_IDS["fact_searcher"])
        assert search_facts(searcher, "unknown question") == []

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            search_facts(Replay(None, "null"), "")


class TestAttributeAnswer:
    def test_gateway_round_trip(self):
        gateway = ModelGateway(ScriptedModelBackend(["The uniform is red."]),
                               sleep=lambda _: None)
        evidence = answer_attribute(
            image_ref("athlete"),
            "What color is the uniform of the athlete on the right side?",
            gateway,
        )
        assert evidence.answer == "The uniform is red."
        assert evidence.question.startswith("What color")

    def test_empty_question_rejected(self):
        with pytest.raises(ValueError):
            answer_attribute(image_ref("a"), "", gateway=None)

    def test_the_live_answerer_asks_its_gateway(self):
        gateway = ModelGateway(ScriptedModelBackend(["It is blue."]), sleep=lambda _: None)
        answerer = GatewayAttributeAnswerer(gateway)
        assert answerer.answer(image_ref("a"), "What color?") == \
            AttributeEvidence("What color?", "It is blue.")
        assert gateway.backend.calls == 1

    def test_mock_determinism(self, tmp_path):
        ref = image_ref("a")
        store = DiskCache(tmp_path)
        store.put(CacheKey.attribute(ref.digest, "What color?",
                                     REPLAY_IDS["attribute_answerer"]),
                  AttributeEvidence("What color?", "blue").to_json())
        answerer = Replay(store, REPLAY_IDS["attribute_answerer"])
        first = answerer.answer(ref, "What color?")
        second = answerer.answer(ref, "What color?")
        assert first == second == AttributeEvidence("What color?", "blue")


class TestFloatFormatting:
    @pytest.mark.parametrize("value, rendered", [
        (0.345, "0.345"),
        (0.44, "0.44"),
        (0.7, "0.7"),
        (0.700, "0.7"),
        (0.001, "0.001"),
        (1.0, "1"),
        (0.0, "0"),
        (0.98, "0.98"),
        (0.1239, "0.124"),
    ])
    def test_up_to_three_decimals_trailing_zeros_trimmed(self, value, rendered):
        assert format_float(value) == rendered

    def test_box_format(self):
        assert format_box(NormBox(0.405, 0.504, 0.726, 0.7)) == "[0.405, 0.504, 0.726, 0.7]"


class TestFormatEvidenceSections:
    def test_object_line_matches_expert_block_style(self):
        bundle = EvidenceBundle(objects=(
            ObjectEvidence("people", NormBox(0.345, 0.424, 0.408, 0.509)),
        ))
        sections = format_evidence_sections(bundle)
        assert sections["object_evidence"] == "people [0.345, 0.424, 0.408, 0.509]"

    def test_empty_families_render_none_information(self):
        sections = format_evidence_sections(EvidenceBundle())
        assert set(sections) == {
            "object_evidence", "attribute_evidence",
            "scene_text_evidence", "fact_evidence",
        }
        assert all(text == "none information" for text in sections.values())

    def test_scene_text_line(self):
        bundle = EvidenceBundle(scene_texts=(
            SceneTextEvidence("worlld", NormBox(0.405, 0.504, 0.726, 0.7)),
        ))
        sections = format_evidence_sections(bundle)
        assert sections["scene_text_evidence"] == "worlld [0.405, 0.504, 0.726, 0.7]"

    def test_attribute_and_fact_blocks(self):
        bundle = EvidenceBundle(
            attributes=(AttributeEvidence("What color?", "Red."),),
            facts=(
                FactEvidence("Where is Huawei headquartered?",
                             ("Huawei: HQ in Shenzhen (https://a)",
                              "Wiki: Shenzhen, Guangdong (https://b)")),
                FactEvidence("Empty search", ()),
            ),
        )
        sections = format_evidence_sections(bundle)
        assert sections["attribute_evidence"] == "question: What color?\nanswer: Red."
        fact_block = sections["fact_evidence"]
        assert fact_block.startswith("question: Where is Huawei headquartered?\n1. ")
        assert "2. Wiki: Shenzhen" in fact_block
        assert "question: Empty search\n(no results)" in fact_block

    def test_fact_block_truncation(self):
        long_snippets = tuple(f"snippet {'x' * 300}" for _ in range(10))
        bundle = EvidenceBundle(facts=(FactEvidence("q", long_snippets),))
        block = format_evidence_sections(bundle)["fact_evidence"]
        assert len(block) <= FACT_BLOCK_CHAR_LIMIT + 4
        assert block.endswith(" ...")

    def test_pure_and_total(self):
        bundle = EvidenceBundle(
            objects=(ObjectEvidence("car", NormBox(0.001, 0.304, 0.992, 0.854)),),
        )
        assert format_evidence_sections(bundle) == format_evidence_sections(bundle)


class TestFactSnippetLine:
    def test_with_title_and_url(self):
        line = fact_snippet_line(FactSnippet("T", "body", "https://s"))
        assert line == "T: body (https://s)"

    def test_without_title(self):
        assert fact_snippet_line(FactSnippet("", "body", "")) == "body"


_NO_DIGEST = ImageRef(path="images/a.jpg", digest="")

# Per tool method: valid arguments first, then invalid ones, which a CacheKey
# rejects (all but the empty search question, whose key still holds top_k).
_TOOL_CALLS = {
    "detect": [(image_ref("a"), ["x"]), (_NO_DIGEST, ["x"]), (image_ref("a"), [])],
    "read": [(image_ref("a"),), (_NO_DIGEST,)],
    "search": [("q", 3), ("", 3)],
    "answer": [(image_ref("a"), "red?"), (image_ref("a"), ""), (_NO_DIGEST, "red?")],
}


def _nothing(method, args):
    """What finding nothing returns: no items, or ``none information`` for an attribute."""
    return AttributeEvidence(args[1], NONE_INFORMATION) if method == "answer" else []


class TestNullTools:
    """A tool slot switched off holds a replay with no store: it finds nothing
    and builds no cache key, so it takes inputs that a key would reject."""

    def test_null_tools_return_empty(self):
        tool = Replay(None, "null")
        assert tool.backend_id == "null"
        assert tool.detect(image_ref("a"), ["x"]) == []
        assert tool.read(image_ref("a")) == []
        assert tool.search("q", 3) == []
        assert tool.answer(image_ref("a"), "red?") == AttributeEvidence("red?", NONE_INFORMATION)

    @pytest.mark.parametrize("method", list(_TOOL_CALLS))
    def test_no_store_finds_nothing_even_for_unkeyable_inputs(self, method):
        tool = Replay(None, "null")
        for args in _TOOL_CALLS[method]:
            assert getattr(tool, method)(*args) == _nothing(method, args)

    @pytest.mark.parametrize("method", list(_TOOL_CALLS))
    def test_store_miss_finds_what_no_store_finds(self, tmp_path, method):
        args = _TOOL_CALLS[method][0]
        replay = Replay(DiskCache(tmp_path), "mock-any")
        assert getattr(replay, method)(*args) == _nothing(method, args)

    def test_no_store_model_request_is_an_error(self):
        request = ModelRequest(prompt=RenderedPrompt(system="s", user="u"))
        with pytest.raises(BackendError, match="no mock entry for request digest"):
            Replay(None, "null").invoke(request)


class TestMockKeys:
    def test_detector_key_canonicalizes_labels(self):
        digest = image_ref("a").digest
        assert CacheKey.object_detect(digest, ["Man", "cat"], "d") == \
               CacheKey.object_detect(digest, ["cat", "man", "MAN"], "d")

    def test_detector_key_depends_on_image(self):
        assert CacheKey.object_detect(image_ref("a").digest, ["cat"], "d") != \
               CacheKey.object_detect(image_ref("b").digest, ["cat"], "d")

    def test_replayed_item_of_another_family_rejected(self, tmp_path):
        store, ref = DiskCache(tmp_path), image_ref("a")
        box = NormBox(0.0, 0.3, 0.9, 0.8)
        store.put(CacheKey.object_detect(ref.digest, ["open"], REPLAY_IDS["object_detector"]),
                  [SceneTextEvidence("open", box).to_json()])
        store.put(CacheKey.scene_text(ref.digest, REPLAY_IDS["scene_text_reader"]),
                  [ObjectEvidence("open", box).to_json()])
        with pytest.raises(ValueError):
            Replay(store, REPLAY_IDS["object_detector"]).detect(ref, ["open"])
        with pytest.raises(ValueError):
            Replay(store, REPLAY_IDS["scene_text_reader"]).read(ref)

    @pytest.mark.parametrize("value, error", [
        ({"text": 5}, "/text: expected a string"),
        ([], "/: expected an object"),
        ({"text": "x", "extra": 1}, "/extra: unknown key"),
    ], ids=["text-not-a-string", "not-an-object", "extra-key"])
    def test_a_replayed_model_reply_is_checked(self, tmp_path, value, error):
        request = ModelRequest(prompt=RenderedPrompt(system="s", user="u"))
        store = DiskCache(tmp_path)
        store.put(CacheKey.model(request_digest(request), REPLAY_IDS["model"]), value)
        with pytest.raises(ValueError) as raised:
            Replay(store, REPLAY_IDS["model"]).invoke(request)
        assert str(raised.value) == error

    def test_unknown_vocabulary_misses(self, tmp_path):
        detector = Replay(DiskCache(tmp_path), REPLAY_IDS["object_detector"])
        out = detect_objects(detector, image_ref("a"), ["zzz-nonexistent"])
        assert out == []


class TestFamilyPreconditions:
    """What each family operation refuses before it calls its backend."""

    @pytest.mark.parametrize("call, error, message", [
        (lambda tool: detect_objects(tool, _NO_DIGEST, ["x"]), InvalidImage, "no digest"),
        (lambda tool: read_scene_text(tool, _NO_DIGEST), InvalidImage, "no digest"),
    ])
    def test_a_bad_input_is_refused(self, call, error, message):
        with pytest.raises(error, match=message):
            call(Replay(None, "null"))

    def test_a_snippet_needs_text(self):
        with pytest.raises(ValueError, match="snippet must be non-empty"):
            FactSnippet("title", "", "https://x/0")
