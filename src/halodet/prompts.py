"""Storage and rendering of the pipeline's prompt templates.

Templates live as UTF-8 text fixtures under ``templates/``; a manifest pins
each file's SHA-256 and the whole set is verified once, on first use. Each
file holds a ``SYSTEM:`` block and a ``USER:`` block. A template's slots are
read from its USER block, once, with the rest of the table: each ``{name}``
placeholder is a slot. Rendering is a pure, single-pass substitution of
exactly those slots; surrounding template bytes are never touched, so the
braces that appear inside the templates' own response-format examples
(``{"claim1": ...}``) survive verbatim.

Canonical templates are the four query-formulation prompts and the two
verification prompts. Supplemental templates (claim extraction, the two
self-check baselines, attribute answering) are authored here and marked
``origin: supplemental`` in the manifest; fidelity tests bind only to the
canonical set.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Iterable, Mapping, Sequence

from .errors import EmptyClaims, MissingSlot, TemplateIntegrityError, UnknownSlot
from .hashing import sha256_bytes
from .model import ImageRef, claim_key


class TemplateId(Enum):
    """The six canonical templates."""

    OBJECT_QUERY = "query_object"
    ATTRIBUTE_QUERY = "query_attribute"
    SCENE_TEXT_QUERY = "query_scene_text"
    FACT_QUERY = "query_fact"
    VERIFY_IMAGE_TO_TEXT = "verify_image_to_text"
    VERIFY_TEXT_TO_IMAGE = "verify_text_to_image"


class SupplementalId(Enum):
    """Project-authored prompts; versioned like templates, tested separately."""

    EXTRACT_CLAIMS = "extract_claims"
    SELF_CHECK_0SHOT = "self_check_0shot"
    SELF_CHECK_2SHOT = "self_check_2shot"
    ATTRIBUTE_ANSWER = "attribute_answer"


PromptId = TemplateId | SupplementalId

# A slot is a ``{name}`` in a template's USER block; a template's slots are
# kept in order of first appearance. The quote that opens every key of the
# templates' JSON examples keeps their braces from matching.
_SLOT_RE = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")

# Templates allowed to carry image attachments: verification, self-check,
# and the attribute-answer prompt. Query formulation is text-only.
_ATTACHMENT_OK: frozenset[PromptId] = frozenset({
    TemplateId.VERIFY_IMAGE_TO_TEXT,
    TemplateId.VERIFY_TEXT_TO_IMAGE,
    SupplementalId.SELF_CHECK_0SHOT,
    SupplementalId.SELF_CHECK_2SHOT,
    SupplementalId.ATTRIBUTE_ANSWER,
})


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully bound prompt ready for a model call."""

    system: str
    user: str
    attachments: tuple[ImageRef, ...] = ()

    def __post_init__(self) -> None:
        if not self.system or not self.user:
            raise ValueError("system and user text must be non-empty")


@functools.cache
def _templates() -> dict[PromptId, tuple[str, str, str, tuple[str, ...]]]:
    """Every template as (system, user, sha256, slots), read and verified on first call.

    Raises TemplateIntegrityError, and caches nothing, if a file's digest
    differs from the manifest or its headers are malformed. Two threads that
    call this first at the same moment may both load; each builds the same
    complete table, and the cache keeps one. No caller sees a partial table.
    """
    root = resources.files("halodet") / "templates"
    manifest = json.loads((root / "manifest.json").read_text("utf-8"))
    templates: dict[PromptId, tuple[str, str, str, tuple[str, ...]]] = {}
    for prompt_id in list(TemplateId) + list(SupplementalId):
        filename = prompt_id.value + ".txt"
        raw = (root / filename).read_bytes()
        digest = sha256_bytes(raw)
        pinned = manifest.get(filename, {}).get("sha256")
        if digest != pinned:
            raise TemplateIntegrityError(
                f"{filename}: digest {digest} does not match manifest {pinned}"
            )
        system, user = _split_template(raw.decode("utf-8"), filename)
        slots = tuple(dict.fromkeys(_SLOT_RE.findall(user)))
        templates[prompt_id] = (system, user, digest, slots)
    return templates


def _split_template(text: str, filename: str) -> tuple[str, str]:
    if not text.startswith("SYSTEM:\n"):
        raise TemplateIntegrityError(f"{filename}: missing SYSTEM: header")
    body = text[len("SYSTEM:\n"):]
    marker = "\n\nUSER:\n"
    split_at = body.find(marker)
    if split_at == -1:
        raise TemplateIntegrityError(f"{filename}: missing USER: header")
    system = body[:split_at]
    user = body[split_at + len(marker):]
    if user.endswith("\n"):
        user = user[:-1]
    return system, user


def template_digests() -> dict[str, str]:
    """Pinned SHA-256 per template file, for run manifests and audits."""
    return {f"{prompt_id.value}.txt": digest
            for prompt_id, (_, _, digest, _) in _templates().items()}


def template_text(prompt_id: PromptId) -> tuple[str, str]:
    """(system, user) text of a stored template, slots unbound."""
    system, user, _, _ = _templates()[prompt_id]
    return system, user


def render_claim_list(claims: Sequence[str]) -> str:
    """Format claims as "claimK: <text>" lines, K counting from 1."""
    if not claims:
        raise EmptyClaims("cannot render an empty claim list")
    return "\n".join(f"{claim_key(i)}: {text}" for i, text in enumerate(claims, start=1))


def render_object_string(labels: Iterable[str]) -> str:
    """Period-joined object vocabulary for the attribute template; "none" if empty."""
    joined = ".".join(labels)
    return joined if joined else "none"


def render(
    prompt_id: PromptId,
    bindings: Mapping[str, str],
    images: Sequence[ImageRef] = (),
) -> RenderedPrompt:
    """Bind slot values into a stored template.

    ``bindings`` must supply exactly the slots the template declares;
    anything missing raises :class:`MissingSlot`, anything extra raises
    :class:`UnknownSlot`. Substitution is one pass over the stored text, so
    bound values are inserted verbatim and never re-scanned.
    """
    system, template, _, slots = _templates()[prompt_id]
    for slot in slots:
        if slot not in bindings:
            raise MissingSlot(slot)
    for name in bindings:
        if name not in slots:
            raise UnknownSlot(name)
    if images and prompt_id not in _ATTACHMENT_OK:
        raise ValueError(f"template {prompt_id.value} does not take image attachments")

    user = _SLOT_RE.sub(lambda match: bindings[match.group(1)], template)
    return RenderedPrompt(system=system, user=user, attachments=tuple(images))
