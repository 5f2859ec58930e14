"""Model-mediated pipeline stages.

Three stages talk to the underlying model: claim extraction, query
formulation (whose replies are parsed into a :class:`ToolPlan`), and
verification (whose replies are parsed into verdicts). The self-check
baselines reuse the verdict machinery without any tool evidence.

Each reply is decoded once, by :func:`_reply`, leniently about transport
damage (fences, quotes, trailing commas; see :mod:`halodet.json_repair`);
extraction and formulation replies share :func:`_claim_mapping`. The parsers
are strict about meaning: claim coverage, the binary label vocabulary, and
per-claim rationales are enforced, and a verification reply that still fails
after one retry degrades to explicitly flagged unverified verdicts rather
than silently truncating. The executor schedules a pair's four
:func:`formulate` calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable, Mapping, Sequence

from .errors import (
    ClaimCountMismatch,
    EmptyExtraction,
    MissingDemonstrations,
    ParseError,
    UnknownLabel,
    UnparseableModelOutput,
)
from .gateway import Completer, ModelRequest, PurposeTag
from .json_repair import loads_lenient
from .model import (
    Claim,
    EvidenceBundle,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    ParseFlag,
    TaskType,
    Verdict,
    claim_key,
    each,
    invalid,
    member,
    parse_claim_key,
    record,
    strings,
    typed,
    within,
)
from .prompts import (
    SupplementalId,
    TemplateId,
    render,
    render_claim_list,
    render_object_string,
)
from .tools import format_evidence_sections

_WIRE_LABELS = {
    "hallucination": Label.HALLUCINATORY,
    "non-hallucination": Label.NON_HALLUCINATORY,
}
_WIRE_NAMES = {label: wire for wire, label in _WIRE_LABELS.items()}


class DetectionMethod(Enum):
    UNIHD = "unihd"
    SELF_CHECK_0SHOT = "selfcheck0"
    SELF_CHECK_2SHOT = "selfcheck2"


@dataclass(frozen=True)
class ClaimQueries:
    """Tool routing for one claim; an empty list means "tool not needed"."""

    object_labels: tuple[str, ...] = ()
    attribute_questions: tuple[str, ...] = ()
    scene_text_questions: tuple[str, ...] = ()
    fact_questions: tuple[str, ...] = ()
    _NAMES = ("object_labels", "attribute_questions", "scene_text_questions", "fact_questions")
    _KEYS = frozenset(_NAMES)

    def to_json(self) -> dict[str, Any]:
        return {name: list(getattr(self, name)) for name in self._NAMES}

    @classmethod
    def from_json(cls, data: Any) -> "ClaimQueries":
        record(data, cls._KEYS)
        return cls(strings(data.get("object_labels"), "object_labels"),
                   strings(data.get("attribute_questions"), "attribute_questions"),
                   strings(data.get("scene_text_questions"), "scene_text_questions"),
                   strings(data.get("fact_questions"), "fact_questions"))


@dataclass(frozen=True)
class ToolPlan:
    """Per-claim routing, positionally indexed: entry k serves claim k+1."""

    per_claim: tuple[ClaimQueries, ...]

    def to_json(self) -> dict[str, Any]:
        return {claim_key(i): q.to_json() for i, q in enumerate(self.per_claim, start=1)}

    @classmethod
    def from_json(cls, data: Any) -> "ToolPlan":
        # n keys, none outside claim1..claimn: each of those is there once.
        keys = [claim_key(i) for i in range(1, len(data) + 1)] if type(data) is dict else []
        record(data, frozenset(keys))
        return cls(tuple([within(data[key], ClaimQueries.from_json, key) for key in keys]))


def label_union(per_claim_labels: Iterable[Sequence[str]]) -> list[str]:
    """Union of per-claim object labels, in first-seen order."""
    seen: dict[str, None] = {}
    for labels in per_claim_labels:
        for label in labels:
            seen.setdefault(label)
    return list(seen)


# --- parsing helpers -----------------------------------------------------------


def _is_none_marker(value: str) -> bool:
    return value.strip().lower() == "none"


def _reply(raw: str) -> tuple[Any, bool]:
    """Decode one model reply into ``(value, repaired)``."""
    try:
        return loads_lenient(raw)
    except ValueError as exc:
        raise UnparseableModelOutput(str(exc)) from exc


def _claim_mapping(raw: str) -> dict[int, Any]:
    """Decode a {"claimK": ...} reply into its entries by claim index."""
    value, _ = _reply(raw)
    if not isinstance(value, dict):
        raise UnparseableModelOutput(f"expected a mapping, got {type(value).__name__}")
    try:
        return {parse_claim_key(str(key)): entry for key, entry in value.items()}
    except ValueError as exc:
        raise UnparseableModelOutput(str(exc)) from exc


def parse_claim_query_map(
    raw: str, n_claims: int, kind: HallucinationCategory
) -> dict[int, list[str]]:
    """Parse one query-formulation reply into per-claim query lists.

    Object replies are period-separated label strings; the other kinds are
    lists of question strings. "none" (bare or as a one-element list, any
    case) collapses to the empty list. The reply must cover claim1..claimN
    exactly.
    """
    if n_claims < 1:
        raise ValueError("n_claims must be >= 1")
    mapping = _claim_mapping(raw)
    if set(mapping) != set(range(1, n_claims + 1)):
        raise ClaimCountMismatch(n_claims, len(mapping))
    result: dict[int, list[str]] = {}
    for index in range(1, n_claims + 1):
        entry = mapping[index]
        try:
            items = [entry] if isinstance(entry, str) else strings(entry, claim_key(index))
        except ValueError as exc:
            raise UnparseableModelOutput(str(exc)) from exc
        items = [item for item in items if not _is_none_marker(item)]
        if kind is HallucinationCategory.OBJECT:
            labels: list[str] = []
            for item in items:
                labels.extend(part.strip() for part in item.split(".") if part.strip())
            result[index] = labels
        else:
            result[index] = [item.strip() for item in items if item.strip()]
    return result


def _dedup_lower(labels: Sequence[str]) -> tuple[str, ...]:
    # Detectors treat labels as a vocabulary set; case duplicates are noise.
    seen: dict[str, None] = {}
    for label in labels:
        seen.setdefault(label.lower())
    return tuple(seen)


# --- claim extraction ------------------------------------------------------------


def extract_claims(pair_text: str, gateway: Completer) -> list[Claim]:
    """Derive ordered claims from a response (or, for text-to-image, a query).

    Benchmark runs skip this stage entirely: pre-annotated claims pass
    through untouched. This is the open-domain path.
    """
    if not pair_text.strip():
        raise EmptyExtraction("cannot extract claims from empty text")
    prompt = render(SupplementalId.EXTRACT_CLAIMS, {"text": pair_text})
    response = gateway.complete(ModelRequest(prompt=prompt, purpose_tag=PurposeTag.EXTRACT))
    mapping = _claim_mapping(response.text)
    if not mapping:
        raise EmptyExtraction("model returned zero claims")
    if set(mapping) != set(range(1, len(mapping) + 1)):
        raise UnparseableModelOutput("extraction reply skips claim indices")
    for index, text in mapping.items():
        if not isinstance(text, str):
            raise UnparseableModelOutput(f"{claim_key(index)}: expected a string")
    texts = [text for _, text in sorted(mapping.items()) if text.strip()]
    claims = [Claim(index=i, text=text) for i, text in enumerate(texts, start=1)]
    if not claims:
        raise EmptyExtraction("model returned zero non-empty claims")
    return claims


# --- query formulation -------------------------------------------------------------


# What each template's reply names, in the order formulation errors surface.
FORMULATION_KINDS = {
    TemplateId.OBJECT_QUERY: HallucinationCategory.OBJECT,
    TemplateId.SCENE_TEXT_QUERY: HallucinationCategory.SCENE_TEXT,
    TemplateId.FACT_QUERY: HallucinationCategory.FACT,
    TemplateId.ATTRIBUTE_QUERY: HallucinationCategory.ATTRIBUTE,
}


def formulate(
    pair: ImageTextPair,
    template: TemplateId,
    gateway: Completer,
    objects: Sequence[str],
    claim_list: str,
) -> dict[int, tuple[str, ...]]:
    """One query-formulation call, parsed and normalized.

    ``objects`` is the pair-level object vocabulary the attribute template
    binds; ``claim_list`` is the pair's rendered claim list. Object labels
    come back lowercased and deduplicated.
    """
    if not pair.claims:
        raise ValueError(f"pair {pair.id!r} has no claims")
    bindings = {"claims": claim_list}
    if template is TemplateId.ATTRIBUTE_QUERY:
        bindings["objects"] = render_object_string(objects)
    normalize = _dedup_lower if template is TemplateId.OBJECT_QUERY else tuple
    response = gateway.complete(ModelRequest(
        prompt=render(template, bindings), purpose_tag=PurposeTag.QUERY_FORMULATE,
    ))
    parsed = parse_claim_query_map(response.text, len(pair.claims), FORMULATION_KINDS[template])
    return {i: normalize(queries) for i, queries in parsed.items()}


def tool_plan(replies: Mapping[TemplateId, Mapping[int, tuple[str, ...]]]) -> ToolPlan:
    """Assemble the four parsed formulation replies into one plan."""
    objects = replies[TemplateId.OBJECT_QUERY]
    attributes = replies[TemplateId.ATTRIBUTE_QUERY]
    scene_texts = replies[TemplateId.SCENE_TEXT_QUERY]
    facts = replies[TemplateId.FACT_QUERY]
    return ToolPlan(per_claim=tuple(
        ClaimQueries(
            object_labels=objects[i],
            attribute_questions=attributes[i],
            scene_text_questions=scene_texts[i],
            fact_questions=facts[i],
        )
        for i in range(1, len(objects) + 1)
    ))


# --- verdict parsing -----------------------------------------------------------


def _parse_verdict_entry(entry: Any, n_claims: int, repaired: bool) -> Verdict:
    if not isinstance(entry, dict):
        raise UnparseableModelOutput(f"verdict entry is not a mapping: {entry!r}")
    claim_keys = [k for k in entry if str(k).startswith("claim")]
    if len(claim_keys) != 1:
        raise UnparseableModelOutput(f"verdict entry needs exactly one claim key: {entry!r}")
    key = str(claim_keys[0])
    try:
        index = parse_claim_key(key)
    except ValueError as exc:
        raise UnparseableModelOutput(str(exc)) from exc
    if not 1 <= index <= n_claims:
        raise ClaimCountMismatch(n_claims, index)
    raw_label = entry[claim_keys[0]]
    if not isinstance(raw_label, str):
        raise UnknownLabel(str(raw_label))
    label = _WIRE_LABELS.get(raw_label.strip().lower())
    if label is None:
        raise UnknownLabel(raw_label)
    extra = set(entry) - {claim_keys[0], "reason"}
    if extra:
        raise UnparseableModelOutput(f"{key}: unexpected fields {sorted(extra)}")
    reason = entry.get("reason")
    if not isinstance(reason, str) or not reason.strip():
        raise UnparseableModelOutput(f"{key}: missing reason")
    flags = frozenset({ParseFlag.REPAIRED}) if repaired else frozenset()
    return Verdict(claim_index=index, label=label, rationale=reason, parse_flags=flags)


def _verdict_entries(raw: str) -> tuple[list[Any], bool]:
    """Decode a verification reply into its entries and its repaired flag."""
    value, repaired = _reply(raw)
    if isinstance(value, dict):
        value = [value]
    if not isinstance(value, list):
        raise UnparseableModelOutput(f"expected a list, got {type(value).__name__}")
    return value, repaired


def _verdicts(entries: list[Any], n_claims: int, repaired: bool) -> list[Verdict]:
    verdicts = [_parse_verdict_entry(entry, n_claims, repaired) for entry in entries]
    by_index = {v.claim_index: v for v in verdicts}
    if len(by_index) != len(verdicts) or set(by_index) != set(range(1, n_claims + 1)):
        raise ClaimCountMismatch(n_claims, len(verdicts))
    return [by_index[i] for i in range(1, n_claims + 1)]


def parse_verdicts(raw: str, n_claims: int) -> list[Verdict]:
    """Parse a verification reply into one verdict per claim, in index order.

    Transport repairs (code fences, trailing commas, quote style) are applied
    silently but flagged ``repaired`` on every verdict they touched. Anything
    outside the binary label vocabulary, a missing rationale, or imperfect
    claim coverage is an error, never a truncation.
    """
    if n_claims < 1:
        raise ValueError("n_claims must be >= 1")
    entries, repaired = _verdict_entries(raw)
    return _verdicts(entries, n_claims, repaired)


def _salvage_verdicts(entries: list[Any], n_claims: int) -> list[Verdict]:
    """Best-effort recovery after a failed parse: keep whatever entries are
    individually sound and fill the rest with flagged unverified fallbacks."""
    recovered: dict[int, Verdict] = {}
    for entry in entries:
        try:
            verdict = _parse_verdict_entry(entry, n_claims, repaired=True)
        except ParseError:
            continue
        recovered.setdefault(verdict.claim_index, verdict)
    fallback_flags = frozenset({ParseFlag.UNVERIFIED})
    return [
        recovered.get(i) or Verdict(
            claim_index=i, label=Label.NON_HALLUCINATORY, rationale="",
            parse_flags=fallback_flags,
        )
        for i in range(1, n_claims + 1)
    ]


def _judge(request: ModelRequest, n_claims: int, gateway: Completer) -> list[Verdict]:
    """One verdict-producing model call with one retry, then flagged fallback."""
    for _ in range(2):
        entries: list[Any] = []  # none if the reply does not decode
        try:
            entries, repaired = _verdict_entries(gateway.complete(request).text)
            return _verdicts(entries, n_claims, repaired)
        except ParseError:
            pass
    return _salvage_verdicts(entries, n_claims)


def is_degraded(verdicts: Sequence[Verdict]) -> bool:
    return any(ParseFlag.UNVERIFIED in v.parse_flags for v in verdicts)


# --- verification -----------------------------------------------------------------


def verify(
    pair: ImageTextPair, evidence: EvidenceBundle, gateway: Completer
) -> list[Verdict]:
    """Judge the whole claim list in a single model call over pooled evidence,
    bound into the template of the pair's direction."""
    if not pair.claims:
        raise ValueError(f"pair {pair.id!r} has no claims")
    template = (TemplateId.VERIFY_TEXT_TO_IMAGE if pair.task is TaskType.TEXT_TO_IMAGE
                else TemplateId.VERIFY_IMAGE_TO_TEXT)
    bindings = dict(format_evidence_sections(evidence))
    bindings["claims"] = render_claim_list([c.text for c in pair.claims])
    request = ModelRequest(prompt=render(template, bindings, [pair.image]),
                           purpose_tag=PurposeTag.VERIFY)
    return _judge(request, len(pair.claims), gateway)


# --- self-check baselines ------------------------------------------------------------


@dataclass(frozen=True)
class SelfCheckDemo:
    """One worked demonstration: an image, its claims, and their judgments."""

    image: ImageRef
    claims: tuple[str, ...]
    verdicts: tuple[Verdict, ...]
    _KEYS = frozenset({"image", "claims", "verdicts"})

    def __post_init__(self) -> None:
        if len(self.claims) != len(self.verdicts):
            raise ValueError("demo needs one verdict per claim")

    @classmethod
    def from_json(cls, data: Any) -> "SelfCheckDemo":
        """A demonstration with one ``{"label", "reason"}`` judgment per claim."""
        record(data, cls._KEYS)
        image = within(data.get("image"), ImageRef.from_json, "image")
        claims = each(data.get("claims"), lambda claim: typed(claim, str, non_empty=True),
                      "claims", non_empty=True)
        verdicts = data.get("verdicts")
        if type(verdicts) is not list or len(verdicts) != len(claims):
            raise invalid("expected a list with one verdict per claim", "verdicts")
        judged = each(verdicts, _judgment, "verdicts")
        return cls(image, claims, tuple(Verdict(k, *j) for k, j in enumerate(judged, 1)))


def _judgment(data: Any) -> tuple[Label, str]:
    record(data, frozenset({"label", "reason"}))
    return (member(data.get("label"), Label, "label"),
            typed(data.get("reason"), str, "reason", non_empty=True))


def _render_demo(demo: SelfCheckDemo) -> str:
    wire = [{claim_key(v.claim_index): _WIRE_NAMES[v.label], "reason": v.rationale}
            for v in demo.verdicts]
    return (
        "(Image Entered)\n"
        "Here is the claim list:\n"
        + render_claim_list(list(demo.claims))
        + "\n\nOutput: "
        + json.dumps(wire, ensure_ascii=False)
    )


def self_check(
    pair: ImageTextPair,
    shots: int,
    gateway: Completer,
    demonstrations: Sequence[SelfCheckDemo] = (),
) -> list[Verdict]:
    """Baseline detection with no tool evidence, 0-shot or 2-shot."""
    if shots not in (0, 2):
        raise ValueError(f"shots must be 0 or 2, got {shots}")
    if not pair.claims:
        raise ValueError(f"pair {pair.id!r} has no claims")
    claims_text = render_claim_list([c.text for c in pair.claims])
    if shots == 0:
        prompt = render(SupplementalId.SELF_CHECK_0SHOT, {"claims": claims_text},
                        [pair.image])
    else:
        if len(demonstrations) != 2:
            raise MissingDemonstrations(
                f"2-shot self-check needs 2 demonstrations, got {len(demonstrations)}"
            )
        demo_text = "\n\n".join(_render_demo(d) for d in demonstrations)
        images = [d.image for d in demonstrations] + [pair.image]
        prompt = render(
            SupplementalId.SELF_CHECK_2SHOT,
            {"demonstrations": demo_text, "claims": claims_text},
            images,
        )
    request = ModelRequest(prompt=prompt, purpose_tag=PurposeTag.SELF_CHECK)
    return _judge(request, len(pair.claims), gateway)
