"""Domain types shared by every pipeline stage, and the one checked decoder of their JSON.

Pairs, claims, segments, labels, evidence, and verdicts are immutable value
objects with canonical JSON encodings. Each record's ``from_json`` sits beside
its ``to_json`` and reads through the checked-decode helpers below, for input
files (:mod:`halodet.bench`) and result files (:mod:`halodet.executor`) alike.
Keys, enum vocabularies and JSON types are closed: anything outside them raises
ValueError naming the JSON pointer of the value, instead of being coerced.

Pair-level structural invariants are checked by :func:`validate_pair`, which
returns the violations as data rather than raising, so that malformed inputs
can be surfaced in full.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, TypeVar, Union


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


# --- checked decoding ------------------------------------------------------------
# A failed check raises ValueError at the JSON pointer of the value (``key`` is
# None for a value read on its own); ``within`` and ``each`` put a nested value's
# key in front on the way out, so a pointer is built only on failure. An optional
# key may be left out; a required key left out reads as null.

T = TypeVar("T")
E = TypeVar("E", bound=Enum)
_NUMBER, _STRING = frozenset({float, int}), frozenset({str})
_KINDS = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          bool: "a boolean"}


def invalid(message: str, *at: str | int | None) -> ValueError:
    """A decode error at the JSON pointer made of ``at``."""
    return _under(ValueError(message), at)


def _under(error: ValueError, at: tuple[str | int | None, ...]) -> ValueError:
    """``error`` with ``at`` put in front of its JSON pointer, which leads its text."""
    if not hasattr(error, "reason"):  # first seen: raised by invalid() or inside a decoder
        error.reason, error.at = str(error), ()  # type: ignore[attr-defined]
    error.at = at = (*(t for t in at if t is not None), *error.at)  # type: ignore[attr-defined]
    error.pointer = pointer = "/" + "/".join(  # type: ignore[attr-defined]
        str(token).replace("~", "~0").replace("/", "~1") for token in at)
    error.args = (f"{pointer}: {error.reason}",)  # type: ignore[attr-defined]
    return error


def within(value: Any, decode: Callable[[Any], T], key: str | None = None) -> T:
    """``decode(value)``, its decode errors moved under ``key``."""
    try:
        return decode(value)
    except ValueError as error:
        _under(error, (key,))
        raise


def each(value: Any, decode: Callable[[Any], T], key: str | None = None,
         non_empty: bool = False) -> tuple[T, ...]:
    """The items of the JSON list ``value`` decoded; item k's errors move under ``key``/k."""
    if type(value) is not list or (non_empty and not value):
        raise invalid("expected a non-empty list" if non_empty else "expected a list", key)
    if not value:
        return ()
    decoded: list[T] = []
    try:
        for item in value:
            decoded.append(decode(item))
    except ValueError as error:
        _under(error, (key, len(decoded)))
        raise
    return tuple(decoded)


def record(data: Any, keys: frozenset[str], kind: str | None = None) -> dict[str, Any]:
    """``data`` if it is a JSON object with no key outside ``keys`` and, given
    ``kind``, with that ``"kind"``: an item of another family is a ValueError."""
    if type(data) is not dict:
        raise invalid("expected an object")
    if kind is not None and data.get("kind") != kind:
        raise invalid(f"expected kind {kind!r}, got {data.get('kind')!r}", "kind")
    if not keys.issuperset(data):
        raise invalid("unknown key", next(key for key in data if key not in keys))
    return data


def typed(value: Any, kind: type, key: str | None = None, non_empty: bool = False) -> Any:
    """``value`` if its type is exactly ``kind``, as in decoded JSON (true is no int)."""
    if type(value) is not kind or (non_empty and not value):
        expected = _KINDS[kind].replace(" ", " non-empty ", 1 if non_empty else 0)
        raise invalid(f"expected {expected}", key)
    return value


def number(value: Any, key: str | None = None) -> float:
    """``value`` as a float if it is a JSON number (true is no number, nor is "1")."""
    if type(value) not in _NUMBER:
        raise invalid("expected a number", key)
    return float(value)


def strings(value: Any, key: str | None = None) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if type(value) is list and _STRING.issuperset(map(type, value)):
        return tuple(value)
    return each(value, lambda item: typed(item, str), key)


def member(value: Any, enum: type[E], key: str | None = None) -> E:
    """The member of ``enum`` whose value is the JSON string ``value``."""
    found = enum._value2member_map_.get(value) if type(value) is str else None
    if found is None:
        raise invalid(f"{value!r} is not one of {sorted(enum._value2member_map_)}"
                      if type(value) is str else "expected a string", key)
    return found  # type: ignore[return-value]


@dataclass(frozen=True)
class ImageRef:
    """Reference to an image: presentation path/URL plus content identity.

    The digest (SHA-256 of the image bytes) is the identity used for caching
    and mock lookup; the path is never trusted for identity.
    """

    path: str
    digest: str
    _KEYS = frozenset({"path", "digest"})

    def to_json(self) -> dict[str, Any]:
        return {"path": self.path, "digest": self.digest}

    @classmethod
    def from_json(cls, data: Any) -> "ImageRef":
        record(data, cls._KEYS)
        path, digest = typed(data.get("path"), str, "path", non_empty=True), data.get("digest")
        if type(digest) is not str or not re.fullmatch("[0-9a-f]{64}", digest):
            raise invalid("expected a 64-hex sha256 digest", "digest")
        return cls(path, digest)


@dataclass(frozen=True)
class NormBox:
    """Bounding box as fractions of image width/height, corners ordered."""

    x1: float
    y1: float
    x2: float
    y2: float
    _KEYS = frozenset({"x1", "y1", "x2", "y2"})

    def to_json(self) -> dict[str, float]:
        return {"x1": self.x1, "y1": self.y1, "x2": self.x2, "y2": self.y2}

    @classmethod
    def from_json(cls, data: Any) -> "NormBox":
        record(data, cls._KEYS)
        return cls(*(number(data.get(key), key) for key in ("x1", "y1", "x2", "y2")))


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
    _KEYS = frozenset({"index", "text", "gold_label", "gold_categories", "segment_id"})

    def to_json(self) -> dict[str, Any]:
        data: dict[str, Any] = {"index": self.index, "text": self.text}
        if self.gold_label is not None:
            data["gold_label"] = self.gold_label.value
        if self.gold_categories:
            data["gold_categories"] = sorted(c.value for c in self.gold_categories)
        if self.segment_id is not None:
            data["segment_id"] = self.segment_id
        return data

    @classmethod
    def from_json(cls, data: Any, gold: bool = False) -> "Claim":
        """A claim; with ``gold`` (a benchmark claim) its gold label is required."""
        record(data, cls._KEYS)
        index = typed(data.get("index"), int, "index")
        text, label, categories = typed(data.get("text"), str, "text", non_empty=True), None, None
        if "gold_label" in data:
            label = member(data["gold_label"], Label, "gold_label")
        elif gold:
            raise invalid("benchmark claims need a gold label", "gold_label")
        if "gold_categories" in data:
            names = each(data["gold_categories"],
                         lambda name: member(name, HallucinationCategory), "gold_categories")
            for k, name in enumerate(names):
                if name in names[:k]:
                    raise invalid(f"duplicate category {name.value!r}", "gold_categories", k)
            categories = frozenset(names)
        if "segment_id" in data:
            typed(data["segment_id"], str, "segment_id")
        return cls(index, text, label, categories, data.get("segment_id"))


@dataclass(frozen=True)
class Segment:
    """Contiguous response span grouping one or more claims."""

    id: str
    text: str
    claim_indices: tuple[int, ...]
    _KEYS = frozenset({"id", "text", "claim_indices"})

    def to_json(self) -> dict[str, Any]:
        return {"id": self.id, "text": self.text, "claim_indices": list(self.claim_indices)}

    @classmethod
    def from_json(cls, data: Any) -> "Segment":
        record(data, cls._KEYS)
        return cls(typed(data.get("id"), str, "id", non_empty=True),
                   typed(data.get("text"), str, "text"),
                   each(data.get("claim_indices"), lambda index: typed(index, int),
                        "claim_indices", non_empty=True))


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
    _KEYS = frozenset({"id", "task", "image", "text", "claims", "segments"})

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

    @classmethod
    def from_json(cls, data: Any, gold: bool = False) -> "ImageTextPair":
        """A pair, unchecked by :func:`validate_pair`; ``gold`` requires gold-labelled claims."""
        record(data, cls._KEYS)
        pair_id = typed(data.get("id"), str, "id")
        if (id_problem := pair_id_problem(pair_id)) is not None:
            raise invalid(id_problem, "id")
        return cls(pair_id, member(data.get("task"), TaskType, "task"),
                   within(data.get("image"), ImageRef.from_json, "image"),
                   typed(data.get("text"), str, "text", non_empty=True),
                   each(data.get("claims", None if gold else []),
                        lambda claim: Claim.from_json(claim, gold), "claims", non_empty=gold),
                   each(data["segments"], Segment.from_json, "segments")
                   if "segments" in data else None)


# --- evidence -------------------------------------------------------------


@dataclass(frozen=True)
class ObjectEvidence:
    label: str
    box: NormBox
    _KEYS = frozenset({"kind", "label", "box"})

    def to_json(self) -> dict[str, Any]:
        return {"kind": "object", "label": self.label, "box": self.box.to_json()}

    @classmethod
    def from_json(cls, data: Any) -> "ObjectEvidence":
        record(data, cls._KEYS, "object")
        return cls(typed(data.get("label"), str, "label"),
                   within(data.get("box"), NormBox.from_json, "box"))


@dataclass(frozen=True)
class AttributeEvidence:
    question: str
    answer: str
    _KEYS = frozenset({"kind", "question", "answer"})

    def to_json(self) -> dict[str, Any]:
        return {"kind": "attribute", "question": self.question, "answer": self.answer}

    @classmethod
    def from_json(cls, data: Any) -> "AttributeEvidence":
        record(data, cls._KEYS, "attribute")
        return cls(typed(data.get("question"), str, "question"),
                   typed(data.get("answer"), str, "answer"))


@dataclass(frozen=True)
class SceneTextEvidence:
    text: str
    box: NormBox
    _KEYS = frozenset({"kind", "text", "box"})

    def to_json(self) -> dict[str, Any]:
        return {"kind": "scene-text", "text": self.text, "box": self.box.to_json()}

    @classmethod
    def from_json(cls, data: Any) -> "SceneTextEvidence":
        record(data, cls._KEYS, "scene-text")
        return cls(typed(data.get("text"), str, "text"),
                   within(data.get("box"), NormBox.from_json, "box"))


@dataclass(frozen=True)
class FactEvidence:
    """Search outcome for one fact question; snippets may be empty on a miss."""

    question: str
    snippets: tuple[str, ...]
    _KEYS = frozenset({"kind", "question", "snippets"})

    def to_json(self) -> dict[str, Any]:
        return {"kind": "fact", "question": self.question, "snippets": list(self.snippets)}

    @classmethod
    def from_json(cls, data: Any) -> "FactEvidence":
        record(data, cls._KEYS, "fact")
        return cls(typed(data.get("question"), str, "question"),
                   strings(data.get("snippets"), "snippets"))


Evidence = Union[ObjectEvidence, AttributeEvidence, SceneTextEvidence, FactEvidence]


@dataclass(frozen=True)
class EvidenceBundle:
    """All evidence collected for one pair, grouped by tool family."""

    objects: tuple[ObjectEvidence, ...] = ()
    attributes: tuple[AttributeEvidence, ...] = ()
    scene_texts: tuple[SceneTextEvidence, ...] = ()
    facts: tuple[FactEvidence, ...] = ()
    _KEYS = frozenset({"objects", "attributes", "scene_texts", "facts"})

    def to_json(self) -> dict[str, Any]:
        return {
            "objects": [e.to_json() for e in self.objects],
            "attributes": [e.to_json() for e in self.attributes],
            "scene_texts": [e.to_json() for e in self.scene_texts],
            "facts": [e.to_json() for e in self.facts],
        }

    @classmethod
    def from_json(cls, data: Any) -> "EvidenceBundle":
        """A bundle; an item in the list of another family is a ValueError."""
        record(data, cls._KEYS)
        return cls(each(data.get("objects"), ObjectEvidence.from_json, "objects"),
                   each(data.get("attributes"), AttributeEvidence.from_json, "attributes"),
                   each(data.get("scene_texts"), SceneTextEvidence.from_json, "scene_texts"),
                   each(data.get("facts"), FactEvidence.from_json, "facts"))


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
    _KEYS = frozenset({"claim_index", "label", "rationale", "parse_flags"})

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
    def from_json(cls, data: Any) -> "Verdict":
        record(data, cls._KEYS)
        return cls(typed(data.get("claim_index"), int, "claim_index"),
                   member(data.get("label"), Label, "label"),
                   typed(data.get("rationale"), str, "rationale"),
                   frozenset(each(data.get("parse_flags"), lambda flag: member(flag, ParseFlag),
                                  "parse_flags")))


# --- validation ----------------------------------------------------------------


# A pair id names its result file in the run directory, beside the run's own
# files (these stems); a run id, checked by ``RunConfig``, names the run directory.
NAME_RE = re.compile(r"[A-Za-z0-9._-]+")
RUN_FILE_STEMS = frozenset({"manifest", "errors"})


def pair_id_problem(pair_id: str) -> str | None:
    """Why ``pair_id`` cannot name a result file, or None if it can."""
    if not NAME_RE.fullmatch(pair_id):
        return f"pair id {pair_id!r} must match {NAME_RE.pattern}"
    if pair_id in RUN_FILE_STEMS:
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
