"""Template storage and rendering: digests, slot discipline, byte fidelity."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import image_ref
from halodet import prompts
from halodet.errors import EmptyClaims, MissingSlot, TemplateIntegrityError, UnknownSlot
from halodet.hashing import sha256_bytes
from halodet.prompts import (
    RenderedPrompt,
    SupplementalId,
    TemplateId,
    render,
    render_claim_list,
    render_object_string,
    template_digests,
    template_text,
)

FIXTURES = Path(__file__).parent / "fixtures" / "rendered"
ROOT = Path(__file__).resolve().parents[1]


class TestClaimList:
    def test_worked_example(self):
        claims = [
            "The image depicts a man laying on the ground.",
            "The man is next to a motorcycle.",
        ]
        assert render_claim_list(claims) == (
            "claim1: The image depicts a man laying on the ground.\n"
            "claim2: The man is next to a motorcycle."
        )

    def test_single_element(self):
        assert render_claim_list(["x"]) == "claim1: x"

    def test_empty_list_rejected(self):
        with pytest.raises(EmptyClaims):
            render_claim_list([])

    @pytest.mark.parametrize("system, user", [("", "u"), ("s", "")])
    def test_a_prompt_needs_system_and_user_text(self, system, user):
        with pytest.raises(ValueError, match="system and user text must be non-empty"):
            RenderedPrompt(system=system, user=user)

    @given(st.lists(st.text(alphabet="abc xyz", min_size=1), min_size=1, max_size=30))
    def test_line_count_and_prefixes(self, texts):
        lines = render_claim_list(texts).split("\n")
        assert len(lines) == len(texts)
        for i, line in enumerate(lines, start=1):
            assert line.startswith(f"claim{i}: ")


_VERIFY_SLOTS = ("object_evidence", "attribute_evidence", "scene_text_evidence",
                 "fact_evidence", "claims")

# The slots each template's USER block declares, in order of first appearance.
SLOTS = {
    TemplateId.OBJECT_QUERY: ("claims",),
    TemplateId.ATTRIBUTE_QUERY: ("objects", "claims"),
    TemplateId.SCENE_TEXT_QUERY: ("claims",),
    TemplateId.FACT_QUERY: ("claims",),
    TemplateId.VERIFY_IMAGE_TO_TEXT: _VERIFY_SLOTS,
    TemplateId.VERIFY_TEXT_TO_IMAGE: _VERIFY_SLOTS,
    SupplementalId.EXTRACT_CLAIMS: ("text",),
    SupplementalId.SELF_CHECK_0SHOT: ("claims",),
    SupplementalId.SELF_CHECK_2SHOT: ("demonstrations", "claims"),
    SupplementalId.ATTRIBUTE_ANSWER: ("question",),
}


class TestSlotContract:
    """Every template takes exactly its pinned slots, read from its USER block."""

    @pytest.fixture(params=list(SLOTS.items()), ids=lambda item: item[0].value)
    def template(self, request):
        return request.param

    def test_every_template_is_pinned(self):
        assert set(SLOTS) == set(TemplateId) | set(SupplementalId)

    def test_renders_with_exactly_its_slots(self, template):
        prompt_id, slots = template
        assert prompts._templates()[prompt_id][3] == slots
        bindings = {slot: f"<{slot} value>" for slot in slots}
        _, stored_user = template_text(prompt_id)
        expected = stored_user
        for slot in slots:
            expected = expected.replace("{" + slot + "}", bindings[slot])
        assert render(prompt_id, bindings).user == expected

    def test_an_extra_binding_is_unknown(self, template):
        prompt_id, slots = template
        bindings = {slot: "x" for slot in slots}
        with pytest.raises(UnknownSlot) as exc_info:
            render(prompt_id, {**bindings, "mood": "upbeat"})
        assert exc_info.value.name == "mood"

    def test_each_missing_binding_is_named(self, template):
        prompt_id, slots = template
        for missing in slots:
            bindings = {slot: "x" for slot in slots if slot != missing}
            with pytest.raises(MissingSlot) as exc_info:
                render(prompt_id, bindings)
            assert exc_info.value.name == missing

    def test_no_system_block_has_a_slot(self, template):
        system, _ = template_text(template[0])
        assert prompts._SLOT_RE.search(system) is None


class TestSlotDiscipline:
    def test_missing_slot(self):
        with pytest.raises(MissingSlot) as exc_info:
            render(TemplateId.ATTRIBUTE_QUERY, {"claims": "claim1: x"})
        assert exc_info.value.name == "objects"

    def test_unknown_slot(self):
        with pytest.raises(UnknownSlot) as exc_info:
            render(TemplateId.OBJECT_QUERY, {"claims": "claim1: x", "mood": "upbeat"})
        assert exc_info.value.name == "mood"

    @pytest.mark.parametrize("template", [
        TemplateId.OBJECT_QUERY, TemplateId.ATTRIBUTE_QUERY,
        TemplateId.SCENE_TEXT_QUERY, TemplateId.FACT_QUERY,
    ])
    def test_query_templates_refuse_attachments(self, template):
        bindings = {"claims": "claim1: x"}
        if template is TemplateId.ATTRIBUTE_QUERY:
            bindings["objects"] = "person"
        with pytest.raises(ValueError, match="does not take image attachments"):
            render(template, bindings, [image_ref("a")])

    def test_verification_accepts_attachments(self):
        bindings = {
            "object_evidence": "none information",
            "attribute_evidence": "none information",
            "scene_text_evidence": "none information",
            "fact_evidence": "none information",
            "claims": "claim1: x",
        }
        prompt = render(TemplateId.VERIFY_IMAGE_TO_TEXT, bindings, [image_ref("a")])
        assert len(prompt.attachments) == 1


class TestTemplateIntegrity:
    def test_malformed_template_file_rejected(self):
        from halodet.errors import TemplateIntegrityError
        from halodet.prompts import _split_template

        with pytest.raises(TemplateIntegrityError):
            _split_template("no header at all", "x.txt")
        with pytest.raises(TemplateIntegrityError):
            _split_template("SYSTEM:\nonly a system block\n", "x.txt")

    def test_manifest_covers_every_template(self):
        digests = template_digests()
        expected = {t.value + ".txt" for t in TemplateId}
        expected |= {s.value + ".txt" for s in SupplementalId}
        assert set(digests) == expected

    def test_digests_match_files(self):
        root = resources.files("halodet") / "templates"
        manifest = json.loads((root / "manifest.json").read_text("utf-8"))
        for filename, digest in template_digests().items():
            assert sha256_bytes((root / filename).read_bytes()) == digest
            assert manifest[filename]["sha256"] == digest

    @pytest.fixture
    def template_copy(self, tmp_path, monkeypatch):
        """A writable copy of the package's templates that the table loads from."""
        shutil.copytree(resources.files("halodet") / "templates", tmp_path / "templates")
        monkeypatch.setattr(prompts.resources, "files", lambda package: tmp_path)
        prompts._templates.cache_clear()
        yield tmp_path / "templates"
        prompts._templates.cache_clear()

    def test_tampered_template_bytes_rejected(self, template_copy):
        path = template_copy / "query_object.txt"
        raw = bytearray(path.read_bytes())
        raw[-2] ^= 0x01
        path.write_bytes(bytes(raw))
        with pytest.raises(TemplateIntegrityError, match="query_object.txt"):
            render(TemplateId.OBJECT_QUERY, {"claims": "claim1: x"})

    def test_template_missing_from_manifest_rejected(self, template_copy):
        manifest_path = template_copy / "manifest.json"
        manifest = json.loads(manifest_path.read_text("utf-8"))
        del manifest["query_object.txt"]
        manifest_path.write_text(json.dumps(manifest), "utf-8")
        with pytest.raises(TemplateIntegrityError, match="query_object.txt"):
            render(TemplateId.OBJECT_QUERY, {"claims": "claim1: x"})

    def test_canonical_vs_supplemental_marking(self):
        root = resources.files("halodet") / "templates"
        manifest = json.loads((root / "manifest.json").read_text("utf-8"))
        for template in TemplateId:
            assert manifest[template.value + ".txt"]["origin"] == "canonical"
        for supplemental in SupplementalId:
            assert manifest[supplemental.value + ".txt"]["origin"] == "supplemental"


_LOAD_ONCE_SCRIPT = """
import halodet
from halodet import prompts

assert prompts._templates.cache_info().currsize == 0, "import read the templates"
halodet.render(halodet.TemplateId.OBJECT_QUERY, {"claims": "claim1: x"})
info = prompts._templates.cache_info()
assert (info.currsize, info.misses) == (1, 1), info
halodet.render(halodet.TemplateId.FACT_QUERY, {"claims": "claim1: x"})
assert prompts._templates.cache_info().misses == 1, prompts._templates.cache_info()
print("loaded once")
"""


def test_templates_load_on_first_render_and_once():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _LOAD_ONCE_SCRIPT], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "loaded once"


class TestRenderingContent:
    def test_object_template_rule_text(self):
        prompt = render(TemplateId.OBJECT_QUERY, {"claims": "claim1: x"})
        assert "Extract object in the singular form." in prompt.user
        assert prompt.system == "You are a brilliant object extractor."

    def test_fact_template_rule_text(self):
        prompt = render(TemplateId.FACT_QUERY, {"claims": "claim1: x"})
        assert "two effective and skeptical search engine questions" in prompt.user

    def test_empty_evidence_renders_none_information(self):
        bindings = {
            "object_evidence": "none information",
            "attribute_evidence": "none information",
            "scene_text_evidence": "none information",
            "fact_evidence": "none information",
            "claims": "claim1: x",
        }
        prompt = render(TemplateId.VERIFY_IMAGE_TO_TEXT, bindings)
        input_section = prompt.user.split("<Input>:")[1]
        assert input_section.count("none information") == 4

    def test_substitution_leaves_template_bytes_alone(self):
        # Blanking the slots and diffing against the stored text must show
        # no other byte changed.
        _, stored_user = template_text(TemplateId.SCENE_TEXT_QUERY)
        prompt = render(TemplateId.SCENE_TEXT_QUERY, {"claims": "XYZZY"})
        assert prompt.user == stored_user.replace("{claims}", "XYZZY")

    def test_rendering_is_deterministic(self):
        bindings = {"claims": "claim1: a\nclaim2: b"}
        first = render(TemplateId.FACT_QUERY, bindings)
        second = render(TemplateId.FACT_QUERY, bindings)
        assert first == second

    def test_object_string(self):
        assert render_object_string(["dog", "cat"]) == "dog.cat"
        assert render_object_string([]) == "none"


def _compose(prompt) -> str:
    return f"SYSTEM:\n{prompt.system}\n\nUSER:\n{prompt.user}\n"


class TestPinnedRenderings:
    """Byte-compare worked-example renderings against committed fixtures."""

    def _pinned(self, name: str) -> str:
        return (FIXTURES / f"{name}.txt").read_text("utf-8")

    def test_query_object(self):
        prompt = render(TemplateId.OBJECT_QUERY, {"claims": render_claim_list([
            "The image depicts a man laying on the ground.",
            "The man is next to a motorcycle.",
            "The sun is shining upon the ground.",
            "The light is very bright.",
        ])})
        assert _compose(prompt) == self._pinned("query_object")

    def test_query_attribute(self):
        prompt = render(TemplateId.ATTRIBUTE_QUERY, {
            "objects": "dog.cat",
            "claims": render_claim_list([
                "There is one black dog on the left in the image.",
                "There are two white cats on the right in the image.",
            ]),
        })
        assert _compose(prompt) == self._pinned("query_attribute")

    def test_query_scene_text(self):
        prompt = render(TemplateId.SCENE_TEXT_QUERY, {"claims": render_claim_list([
            "There is a black device in the image.",
            "The device is a brand of smartphones produced by Samsung Electronics.",
        ])})
        assert _compose(prompt) == self._pinned("query_scene_text")

    def test_query_fact(self):
        prompt = render(TemplateId.FACT_QUERY, {"claims": render_claim_list([
            "The image shows a black phone.",
            "This black phone is manufactured by Huawei.",
            "Huawei is a company located in Shenzhen, China.",
        ])})
        assert _compose(prompt) == self._pinned("query_fact")
