"""Shared fixtures and the acceptance-criteria summary plugin."""

from __future__ import annotations

import os

import pytest

from halodet.hashing import sha256_text
from halodet.model import (
    Claim,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    Segment,
    TaskType,
)

_acceptance_results: dict[int, tuple[str, bool]] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    marker = item.get_closest_marker("acceptance")
    if marker:
        num, name = marker.args
        _acceptance_results[num] = (name, rep.passed)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(_acceptance_results):
        name, passed = _acceptance_results[num]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {num} ({name}): {status}")


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HALODET_LIVE_TESTS") == "1":
        return
    skip_live = pytest.mark.skip(reason="live endpoints not opted in")
    for item in items:
        if "live" in item.keywords:
            item.add_marker(skip_live)


# --- shared builders -------------------------------------------------------------


class TableBackend:
    """Model backend double: routes replies by substring of the prompt text."""

    backend_id = "table"

    def __init__(self, rules):
        self.rules = list(rules)
        self.calls = 0
        self.requests = []

    def invoke(self, request):
        self.calls += 1
        self.requests.append(request)
        for marker, reply in self.rules:
            if marker in request.prompt.user or marker in request.prompt.system:
                return reply
        raise AssertionError(f"no rule matched prompt: {request.prompt.user[:100]!r}")


class ScriptedModelBackend:
    """Model backend double: replays a fixed script of texts and exceptions."""

    backend_id = "scripted"

    def __init__(self, script):
        self.script = list(script)
        self.calls = 0

    def invoke(self, request):
        from halodet.errors import BackendUnavailable

        self.calls += 1
        if not self.script:
            raise BackendUnavailable("scripted backend exhausted")
        item = self.script.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def table_gateway(rules):
    from halodet.gateway import ModelGateway

    return ModelGateway(TableBackend(rules), sleep=lambda _: None)


def formulate_queries(pair, gateway):
    """The sequential reference for the executor's formulation schedule.

    Makes the four formulation calls one after another, in the order of
    ``FORMULATION_KINDS``; the attribute prompt binds the object vocabulary
    of the object reply. The first error stops the rest and carries a
    ``template_id``. The executor makes the same calls concurrently and
    must reach the same plan.
    """
    from halodet.prompts import TemplateId, render_claim_list
    from halodet.stages import FORMULATION_KINDS, formulate, label_union, tool_plan

    claim_list = render_claim_list([c.text for c in pair.claims])
    replies = {}
    for template in FORMULATION_KINDS:
        objects = (label_union(replies[TemplateId.OBJECT_QUERY].values())
                   if template is TemplateId.ATTRIBUTE_QUERY else ())
        replies[template] = formulate(pair, template, gateway, objects, claim_list)
    return tool_plan(replies)


def image_ref(name: str) -> ImageRef:
    """Synthetic image identity: digest derived from the name, no file needed."""
    return ImageRef(path=f"images/{name}.jpg", digest=sha256_text(f"image-bytes:{name}"))


@pytest.fixture
def simple_pair() -> ImageTextPair:
    return ImageTextPair(
        id="pair-1",
        task=TaskType.IMAGE_CAPTIONING,
        image=image_ref("pair-1"),
        text="A man rides a red bicycle past a bakery.",
        claims=(
            Claim(index=1, text="A man rides a bicycle.",
                  gold_label=Label.NON_HALLUCINATORY, segment_id="S1"),
            Claim(index=2, text="The bicycle is red.",
                  gold_label=Label.HALLUCINATORY,
                  gold_categories=frozenset({HallucinationCategory.ATTRIBUTE}),
                  segment_id="S1"),
            Claim(index=3, text="There is a bakery.",
                  gold_label=Label.NON_HALLUCINATORY, segment_id="S2"),
        ),
        segments=(
            Segment(id="S1", text="A man rides a red bicycle", claim_indices=(1, 2)),
            Segment(id="S2", text="past a bakery.", claim_indices=(3,)),
        ),
    )
