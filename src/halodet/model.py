"""Domain types shared by every pipeline stage.

Pairs, claims, segments, labels, evidence, and verdicts are immutable value
objects with canonical JSON encodings. The input files that hold pairs are
decoded and checked by :mod:`halodet.bench`; the decoders here read back what
a run wrote (verdicts and evidence). Enum vocabularies and JSON types are
closed: decoding rejects anything outside them instead of coercing.

Pair-level structural invariants are checked by :func:`validate_pair`, which
returns the violations as data rather than raising, so that malformed inputs
can be surfaced in full.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Union



class TaskType(Enum):
    IMAGE_CAPTIONING = "image-captioning"
    VQA = "vqa"
    TEXT_TO_IMAGE = "text-to-image"


class HallucinationCategory(Enum):
    OBJECT = "object"
    ATTRIBUTE = "attribute"
    SCENE_TEXT = "scene-text"
    FACT = "fact"


class Label(Enum):
    HALLUCINATORY = "hallucinatory"
    NON_HALLUCINATORY = "non-hallucinatory"


class ParseFlag(Enum):
    REPAIRED = "repaired"
    UNVERIFIED = "unverified"


# Decoders look a label up here before calling Label, which costs ten times more.
_LABELS = {label.value: label for label in Label}


def claim_key(index: int) -> str:
    """Canonical per-claim key: "claim" + decimal index, no padding."""
    if index < 1:
        raise ValueError(f"claim index must be >= 1, got {index}")
    return f"claim{index}"


def parse_claim_key(key: str) -> int:
    """Inverse of :func:`claim_key`; raises ValueError on anything else."""
    if not key.startswith("claim"):
        raise ValueError(f"not a claim key: {key!r}")
    suffix = key[len("claim"):]
    if not suffix.isdigit() or (len(suffix) > 1 and suffix[0] == "0"):
        raise ValueError(f"not a claim key: {key!r}")
    index = int(suffix)
    if index < 1:
        raise ValueError(f"not a claim key: {key!r}")
    return index


_NUMBER, _STRING = frozenset({float, int}), frozenset({str})


def of_type(value: Any, kind: type) -> Any:
    """``value`` if its type is exactly ``kind``, as in decoded JSON (true is no int)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def with_keys(data: Any, keys: frozenset[str]) -> dict[str, Any]:
    """``data`` if it is a JSON object with exactly ``keys``, none missing and none more."""
    if type(data) is not dict or data.keys() != keys:
        got = sorted(data) if type(data) is dict else data
        raise ValueError(f"expected an object with keys {sorted(keys)}, got {got!r}")
    return data


def string_tuple(value: Any) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if type(value) is not list or not _STRING.issuperset(map(type, value)):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class ImageRef:
    """Reference to an image: presentation path/URL plus content identity.

    The digest (SHA-256 of the image bytes) is the identity used for caching
    and mock lookup; the path is never trusted for identity.
    """

    path: str
    digest: str

    def to_json(self) -> dict[str, Any]:
        return {"path": self.path, "digest": self.digest}


@dataclass(frozen=True)
class NormBox:
    """Bounding box as fractions of image width/height, corners ordered."""

    x1: float
    y1: float
    x2: float
    y2: float

    def to_json(self) -> dict[str, float]:
        return {"x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2}

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "NormBox":
        with_keys(data, _BOX_KEYS)
        coords = (data["x1"], data["y1"], data["x2"], data["y2"])
        if not _NUMBER.issuperset(map(type, coords)):
            raise TypeError(f"expected numbers, got {coords!r}")
        return cls(*map(float, coords))


_BOX_KEYS = frozenset({"x1", "y1", "x2", "y2"})


def validate_norm_box(box: NormBox) -> bool:
    """True iff 0 <= x1 < x2 <= 1 and 0 <= y1 < y2 <= 1."""
    return 0.0 <= box.x1 < box.x2 <= 1.0 and 0.0 <= box.y1 < box.y2 <= 1.0


@dataclass(frozen=True)
class Claim:
    """One independently verifiable statement, addressed by 1-based index."""

    index: int
    text: str
    gold_label: Label | None = None
    gold_categories: frozenset[HallucinationCategory] | None = None
    segment_id: str | None = None

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"index": self.index, "text": self.text}
        if self.gold_label is not None:
            data["gold_label"] = self.gold_label.value
        if self.gold_categories:
            data["gold_categories"] = sorted(c.value for c in self.gold_categories)
        if self.segment_id is not None:
            data["segment_id"] = self.segment_id
        return data


@dataclass(frozen=True)
class Segment:
    """Contiguous response span grouping one or more claims."""

    id: str
    text: str
    claim_indices: tuple[int, ...]

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "text": self.text, "claim_indices": list(self.claim_indices)}


@dataclass(frozen=True)
class ImageTextPair:
    """The unit under test: an image reference plus its paired text.

    For image-to-text tasks the text is the model's generated response; for
    text-to-image it is the user query that produced the image.
    """

    id: str
    task: TaskType
    image: ImageRef
    text: str
    claims: tuple[Claim, ...] = ()
    segments: tuple[Segment, ...] | None = None

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {
            "id": self.id,
            "task": self.task.value,
            "image": self.image.to_json(),
            "text": self.text,
            "claims": [c.to_json() for c in self.claims],
        }
        if self.segments is not None:
            data["segments"] = [s.to_json() for s in self.segments]
        return data


# --- evidence -------------------------------------------------------------


@dataclass(frozen=True)
class ObjectEvidence:
    label: str
    box: NormBox

    def to_json(self) -> dict[str, Any]:
        return {"kind": "object", "label": self.label, "box": self.box.to_json()}


@dataclass(frozen=True)
class AttributeEvidence:
    question: str
    answer: str

    def to_json(self) -> dict[str, Any]:
        return {"kind": "attribute", "question": self.question, "answer": self.answer}


@dataclass(frozen=True)
class SceneTextEvidence:
    text: str
    box: NormBox

    def to_json(self) -> dict[str, Any]:
        return {"kind": "scene-text", "text": self.text, "box": self.box.to_json()}


@dataclass(frozen=True)
class FactEvidence:
    """Search outcome for one fact question; snippets may be empty on a miss."""

    question: str
    snippets: tuple[str, ...]

    def to_json(self) -> dict[str, Any]:
        return {"kind": "fact", "question": self.question, "snippets": list(self.snippets)}


Evidence = Union[ObjectEvidence, AttributeEvidence, SceneTextEvidence, FactEvidence]

# Per kind: the item's exact keys, and its decoder once they are checked.
_EVIDENCE_DECODERS: dict[str, tuple[frozenset[str], Callable[[dict[str, Any]], Evidence]]] = {
    "object": (frozenset({"kind", "label", "box"}), lambda d: ObjectEvidence(
        of_type(d["label"], str), NormBox.from_json(d["box"]))),
    "attribute": (frozenset({"kind", "question", "answer"}), lambda d: AttributeEvidence(
        of_type(d["question"], str), of_type(d["answer"], str))),
    "scene-text": (frozenset({"kind", "text", "box"}), lambda d: SceneTextEvidence(
        of_type(d["text"], str), NormBox.from_json(d["box"]))),
    "fact": (frozenset({"kind", "question", "snippets"}), lambda d: FactEvidence(
        of_type(d["question"], str), string_tuple(d["snippets"]))),
}


def decode_evidence(kind: str, items: Any) -> tuple:
    """Decode a JSON list of ``kind`` evidence items; an item of another kind is a ValueError."""
    keys, decode = _EVIDENCE_DECODERS[kind]
    decoded = []
    for item in of_type(items, list):
        if with_keys(item, keys)["kind"] != kind:
            raise ValueError(f"expected {kind!r} evidence, got kind {item['kind']!r}")
        decoded.append(decode(item))
    return tuple(decoded)


@dataclass(frozen=True)
class EvidenceBundle:
    """All evidence collected for one pair, grouped by tool family."""

    objects: tuple[ObjectEvidence, ...] = ()
    attributes: tuple[AttributeEvidence, ...] = ()
    scene_texts: tuple[SceneTextEvidence, ...] = ()
    facts: tuple[FactEvidence, ...] = ()

    def to_json(self) -> dict[str, Any]:
        return {
            "objects": [e.to_json() for e in self.objects],
            "attributes": [e.to_json() for e in self.attributes],
            "scene_texts": [e.to_json() for e in self.scene_texts],
            "facts": [e.to_json() for e in self.facts],
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "EvidenceBundle":
        with_keys(data, _BUNDLE_KEYS)
        return cls(decode_evidence("object", data["objects"]),
                   decode_evidence("attribute", data["attributes"]),
                   decode_evidence("scene-text", data["scene_texts"]),
                   decode_evidence("fact", data["facts"]))


_BUNDLE_KEYS = frozenset({"objects", "attributes", "scene_texts", "facts"})


# --- verdicts ----------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Binary per-claim judgment with its explanation.

    A rationale is required unless the claim went unverified (degraded run);
    the ``repaired`` flag records that the raw model output needed lenient
    re-parsing before it matched the documented format.
    """

    claim_index: int
    label: Label
    rationale: str
    parse_flags: frozenset[ParseFlag] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.claim_index < 1:
            raise ValueError(f"claim_index must be >= 1, got {self.claim_index}")
        if not self.rationale and ParseFlag.UNVERIFIED not in self.parse_flags:
            raise ValueError("rationale required unless flagged unverified")

    def to_json(self) -> dict[str, Any]:
        return {
            "claim_index": self.claim_index,
            "label": self.label.value,
            "rationale": self.rationale,
            "parse_flags": sorted(f.value for f in self.parse_flags),
        }

    @classmethod
    def from_json(cls, data: dict[str, Any]) -> "Verdict":
        with_keys(data, _VERDICT_KEYS)
        return cls(of_type(data["claim_index"], int),
                   _LABELS.get(data["label"]) or Label(data["label"]),
                   of_type(data["rationale"], str),
                   frozenset(map(ParseFlag, string_tuple(data["parse_flags"]))))


_VERDICT_KEYS = frozenset({"claim_index", "label", "rationale", "parse_flags"})


# --- validation ----------------------------------------------------------------


# A pair id names its result file in the run directory, next to these two;
# a run id, checked by ``RunConfig``, names the run directory.
NAME_RE = re.compile(r"[A-Za-z0-9._-]+")
_RESERVED_PAIR_IDS = frozenset({"manifest", "errors"})


def pair_id_problem(pair_id: str) -> str | None:
    """Why ``pair_id`` cannot name a result file, or None if it can."""
    if not NAME_RE.fullmatch(pair_id):
        return f"pair id {pair_id!r} must match {NAME_RE.pattern}"
    if pair_id in _RESERVED_PAIR_IDS:
        return f"pair id {pair_id!r} is reserved for the run's own {pair_id}.json"
    return None


def validate_pair(pair: ImageTextPair) -> tuple[str, ...]:
    """Every ImageTextPair invariant the pair breaks; empty when it is sound."""
    violations: list[str] = []

    id_problem = pair_id_problem(pair.id)
    if id_problem:
        violations.append(id_problem)
    if not pair.text:
        violations.append("empty pair text")

    n = len(pair.claims)
    indices = [c.index for c in pair.claims]
    if indices != list(range(1, n + 1)):
        violations.append(f"non-contiguous claim indices: {indices}")
    for claim in pair.claims:
        if not claim.text:
            violations.append(f"claim {claim.index}: empty text")
        if claim.gold_categories and claim.gold_label is not Label.HALLUCINATORY:
            violations.append(
                f"claim {claim.index}: category tags on a non-hallucinatory claim"
            )

    if pair.segments is not None:
        seen_ids: set[str] = set()
        owner_of: dict[int, str] = {}
        for segment in pair.segments:
            if segment.id in seen_ids:
                violations.append(f"duplicate segment id {segment.id!r}")
            seen_ids.add(segment.id)
            if not segment.claim_indices:
                violations.append(f"segment {segment.id!r}: empty claim list")
            for index in segment.claim_indices:
                if not 1 <= index <= n:
                    violations.append(
                        f"segment {segment.id!r}: dangling claim reference {index}"
                    )
                elif index in owner_of:
                    violations.append(
                        f"claim {index} assigned to both segment "
                        f"{owner_of[index]!r} and {segment.id!r}"
                    )
                else:
                    owner_of[index] = segment.id
        unassigned = [i for i in range(1, n + 1) if i not in owner_of]
        if unassigned:
            violations.append(f"claims not covered by any segment: {unassigned}")
        for claim in pair.claims:
            if claim.segment_id is None:
                continue
            if claim.segment_id not in seen_ids:
                violations.append(
                    f"claim {claim.index}: unknown segment id {claim.segment_id!r}"
                )
            elif owner_of.get(claim.index) != claim.segment_id:
                violations.append(
                    f"claim {claim.index}: segment_id {claim.segment_id!r} "
                    f"disagrees with owning segment {owner_of.get(claim.index)!r}"
                )

    return tuple(violations)
