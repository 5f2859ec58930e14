"""Benchmark file schema, loader, corpus statistics, and result alignment.

The on-disk format is the versioned ``mhalubench.v1`` JSON schema shipped
under ``schema/``. The loader enforces structure with JSON-pointer error
paths, requires a gold label on every claim, and verifies image digests when
the image files are actually present; metrics need no pixels, so a missing
file just means digest-only mode.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .errors import (
    IndexMismatch,
    MissingPrediction,
    SchemaViolation,
    UnsupportedVersion,
)
from .executor import DetectionResult
from .hashing import sha256_file
from .metrics import derive_response_label, derive_segment_label
from .model import (
    Claim,
    HallucinationCategory,
    ImageRef,
    ImageTextPair,
    Label,
    ParseFlag,
    Segment,
    TaskType,
    pair_id_problem,
    validate_pair,
)

SCHEMA_VERSION = "mhalubench.v1"

_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_TASKS = {task.value: task for task in TaskType}
_LABELS = {label.value: label for label in Label}
_CATEGORIES = {category.value: category for category in HallucinationCategory}


@dataclass(frozen=True)
class BenchmarkFile:
    version: str
    pairs: tuple[ImageTextPair, ...]
    provenance: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "provenance": self.provenance,
            "pairs": [pair.to_json() for pair in self.pairs],
        }


def schema_document() -> dict[str, Any]:
    """The shipped JSON Schema for the benchmark format."""
    from importlib import resources

    path = resources.files("halodet") / "schema" / f"{SCHEMA_VERSION}.json"
    return json.loads(path.read_text("utf-8"))


# --- decoding with pointer paths ------------------------------------------------
# One walk checks each field and builds the pair from it. A failed check raises
# SchemaViolation at the JSON pointer made of ``at``; none is built otherwise.


def _violation(message: str, *at: str | int) -> SchemaViolation:
    return SchemaViolation("/" + "/".join(map(str, at)), message)


def _member(members: dict[str, Any], value: Any, *at: str | int) -> Any:
    if not isinstance(value, str):
        raise _violation("expected a string", *at)
    if value not in members:
        raise _violation(f"{value!r} is not one of {sorted(members)}", *at)
    return members[value]


def _claim(data: Any, at: tuple[str | int, ...]) -> Claim:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    index, text = data.get("index"), data.get("text")
    if type(index) is not int:  # a JSON true or false is a bool, not an integer
        raise _violation("expected an integer", *at, "index")
    if not (isinstance(text, str) and text):
        raise _violation("expected a non-empty string", *at, "text")
    if "gold_label" not in data:
        raise _violation("benchmark claims need a gold label", *at, "gold_label")
    label = _member(_LABELS, data["gold_label"], *at, "gold_label")
    categories = data.get("gold_categories")
    if "gold_categories" in data:
        if not isinstance(categories, list):
            raise _violation("expected a list", *at, "gold_categories")
        categories = frozenset([_member(_CATEGORIES, name, *at, "gold_categories", k)
                                for k, name in enumerate(categories)])
    segment_id = data.get("segment_id")
    if "segment_id" in data and not isinstance(segment_id, str):
        raise _violation("expected a string", *at, "segment_id")
    return Claim(index, text, label, categories, segment_id)


def _segment(data: Any, at: tuple[str | int, ...]) -> Segment:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    segment_id, text, indices = data.get("id"), data.get("text"), data.get("claim_indices")
    if not (isinstance(segment_id, str) and segment_id):
        raise _violation("expected a non-empty string", *at, "id")
    if not isinstance(text, str):
        raise _violation("expected a string", *at, "text")
    if not (isinstance(indices, list) and indices):
        raise _violation("expected a non-empty list", *at, "claim_indices")
    for k, index in enumerate(indices):
        if type(index) is not int:
            raise _violation("expected an integer", *at, "claim_indices", k)
    return Segment(segment_id, text, tuple(indices))


def _pair(data: Any, at: tuple[str | int, ...]) -> ImageTextPair:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    pair_id, image, text = data.get("id"), data.get("image"), data.get("text")
    if not isinstance(pair_id, str):
        raise _violation("expected a string", *at, "id")
    id_problem = pair_id_problem(pair_id)
    if id_problem is not None:
        raise _violation(id_problem, *at, "id")
    task = _member(_TASKS, data.get("task"), *at, "task")
    if not isinstance(image, dict):
        raise _violation("expected an object", *at, "image")
    image_path, digest = image.get("path"), image.get("digest")
    if not (isinstance(image_path, str) and image_path):
        raise _violation("expected a non-empty string", *at, "image", "path")
    if not (isinstance(digest, str) and _DIGEST_RE.fullmatch(digest)):
        raise _violation("expected a 64-hex sha256 digest", *at, "image", "digest")
    if not (isinstance(text, str) and text):
        raise _violation("expected a non-empty string", *at, "text")
    claims = data.get("claims")
    if not (isinstance(claims, list) and claims):
        raise _violation("expected a non-empty list", *at, "claims")
    claims = tuple([_claim(item, (*at, "claims", j)) for j, item in enumerate(claims)])
    segments = data.get("segments")
    if "segments" in data:
        if not isinstance(segments, list):
            raise _violation("expected a list", *at, "segments")
        segments = tuple([_segment(item, (*at, "segments", j))
                          for j, item in enumerate(segments)])
    return ImageTextPair(pair_id, task, ImageRef(image_path, digest), text, claims, segments)


def load(path: str | Path) -> BenchmarkFile:
    """Load and fully validate one benchmark file, and each image file present."""
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc

    if not isinstance(data, dict):
        raise _violation("expected an object")
    version = data.get("version")
    if not isinstance(version, str) or version != SCHEMA_VERSION:
        raise UnsupportedVersion(str(version))
    pairs_json = data.get("pairs")
    if not isinstance(pairs_json, list):
        raise _violation("expected a list", "pairs")
    provenance = data.get("provenance", {})
    if not isinstance(provenance, dict):
        raise _violation("expected an object", "provenance")

    pairs = []
    seen_ids: set[str] = set()
    for i, pair_json in enumerate(pairs_json):
        pair = _pair(pair_json, ("pairs", i))
        if pair.id in seen_ids:
            raise _violation(f"duplicate pair id {pair.id!r}", "pairs", i, "id")
        seen_ids.add(pair.id)
        report = validate_pair(pair)
        if not report.ok:
            raise _violation("; ".join(report.violations), "pairs", i)
        image_path = os.path.join(os.path.dirname(path), pair.image.path)
        if os.path.isfile(image_path):
            actual = sha256_file(image_path)
            if actual != pair.image.digest:
                raise _violation(f"file digest {actual} does not match recorded digest",
                                 "pairs", i, "image", "digest")
        pairs.append(pair)

    return BenchmarkFile(version=version, pairs=tuple(pairs), provenance=dict(provenance))


def save(bench: BenchmarkFile, path: str | Path) -> None:
    """Write the canonical serialization; load(save(x)) == x."""
    Path(path).write_text(
        json.dumps(bench.to_json(), ensure_ascii=False, indent=2) + "\n", "utf-8"
    )


def load_detection_input(path: str | Path) -> tuple[ImageTextPair, ...]:
    """Read detect's input: a benchmark file or a bare single-pair file.

    Single-pair files hold one pair object (no version envelope) and may omit
    gold labels, since detection itself never reads them.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc
    if isinstance(data, dict) and "version" in data:
        return load(path).pairs
    try:
        pair = ImageTextPair.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaViolation("/", f"neither a benchmark file nor a pair: {exc}") from exc
    report = validate_pair(pair)
    if not report.ok:
        raise SchemaViolation("/", "; ".join(report.violations))
    return (pair,)


# --- corpus statistics ---------------------------------------------------------------


@dataclass(frozen=True)
class CorpusStats:
    n_pairs: int
    n_claims: int
    n_segments: int
    task_counts: dict[str, int]
    claims_per_pair: dict[int, int]
    label_counts: dict[str, int]
    category_counts: dict[str, int]

    def to_json(self) -> dict[str, Any]:
        return {
            "n_pairs": self.n_pairs,
            "n_claims": self.n_claims,
            "n_segments": self.n_segments,
            "task_counts": {t.value: self.task_counts.get(t.value, 0) for t in TaskType},
            "claims_per_pair": {
                str(k): self.claims_per_pair[k] for k in sorted(self.claims_per_pair)
            },
            "label_counts": {
                label.value: self.label_counts.get(label.value, 0) for label in Label
            },
            "category_counts": {
                c.value: self.category_counts.get(c.value, 0)
                for c in HallucinationCategory
            },
        }

    def render_text(self) -> str:
        data = self.to_json()
        lines = [
            f"pairs: {self.n_pairs}   claims: {self.n_claims}   segments: {self.n_segments}",
            "task counts:",
        ]
        lines += [f"  {k}: {v}" for k, v in data["task_counts"].items()]
        lines.append("claims per pair:")
        lines += [f"  {k}: {v}" for k, v in data["claims_per_pair"].items()]
        lines.append("gold labels:")
        lines += [f"  {k}: {v}" for k, v in data["label_counts"].items()]
        lines.append("categories over hallucinatory claims:")
        lines += [f"  {k}: {v}" for k, v in data["category_counts"].items()]
        return "\n".join(lines)


def stats(bench: BenchmarkFile) -> CorpusStats:
    """Exact corpus counts with deterministic report ordering."""
    task_counts: dict[str, int] = {}
    claims_per_pair: dict[int, int] = {}
    label_counts: dict[str, int] = {}
    category_counts: dict[str, int] = {}
    n_claims = 0
    n_segments = 0
    for pair in bench.pairs:
        task_counts[pair.task.value] = task_counts.get(pair.task.value, 0) + 1
        n = len(pair.claims)
        n_claims += n
        claims_per_pair[n] = claims_per_pair.get(n, 0) + 1
        if pair.segments is not None:
            n_segments += len(pair.segments)
        for claim in pair.claims:
            if claim.gold_label is None:
                continue
            value = claim.gold_label.value
            label_counts[value] = label_counts.get(value, 0) + 1
            if claim.gold_label is Label.HALLUCINATORY and claim.gold_categories:
                for category in claim.gold_categories:
                    category_counts[category.value] = (
                        category_counts.get(category.value, 0) + 1
                    )
    return CorpusStats(
        n_pairs=len(bench.pairs),
        n_claims=n_claims,
        n_segments=n_segments,
        task_counts=task_counts,
        claims_per_pair=claims_per_pair,
        label_counts=label_counts,
        category_counts=category_counts,
    )


# --- aligning detection results with gold labels -----------------------------------


@dataclass(frozen=True)
class AlignedLabels:
    preds: tuple[Label, ...]
    golds: tuple[Label, ...]
    unverified_count: int = 0


@dataclass(frozen=True)
class ConvertedPredictions:
    """Prediction/gold vectors per level, aligned by (pair id, claim index)."""

    claim: AlignedLabels
    segment: AlignedLabels
    response: AlignedLabels
    claim_categories: tuple[frozenset[HallucinationCategory] | None, ...]


def convert_predictions(
    results: Iterable[DetectionResult], bench: BenchmarkFile
) -> ConvertedPredictions:
    """Line up a run's verdicts against the benchmark's gold labels.

    Segment-level vectors cover only pairs that carry segments; response
    labels derive from segments when present and directly from claims
    otherwise.
    """
    by_id = {result.pair_id: result for result in results}

    claim_preds: list[Label] = []
    claim_golds: list[Label] = []
    claim_cats: list[frozenset[HallucinationCategory] | None] = []
    claim_unverified = 0
    segment_preds: list[Label] = []
    segment_golds: list[Label] = []
    segment_unverified = 0
    response_preds: list[Label] = []
    response_golds: list[Label] = []
    response_unverified = 0

    for pair in bench.pairs:
        result = by_id.get(pair.id)
        if result is None:
            raise MissingPrediction(pair.id)
        indices = [v.claim_index for v in result.verdicts]
        if indices != [c.index for c in pair.claims]:
            raise IndexMismatch(
                f"pair {pair.id!r}: verdict indices {indices} do not match claims"
            )
        pair_pred = {v.claim_index: v.label for v in result.verdicts}
        pair_unverified = {
            v.claim_index: ParseFlag.UNVERIFIED in v.parse_flags
            for v in result.verdicts
        }
        pair_gold = {}
        for claim in pair.claims:
            if claim.gold_label is None:
                raise IndexMismatch(f"pair {pair.id!r}: claim {claim.index} has no gold label")
            pair_gold[claim.index] = claim.gold_label
            claim_preds.append(pair_pred[claim.index])
            claim_golds.append(claim.gold_label)
            claim_cats.append(claim.gold_categories)
            if pair_unverified[claim.index]:
                claim_unverified += 1

        if pair.segments is not None:
            seg_pred_labels = []
            seg_gold_labels = []
            for segment in pair.segments:
                indices = segment.claim_indices
                seg_pred_labels.append(derive_segment_label([pair_pred[i] for i in indices]))
                seg_gold_labels.append(derive_segment_label([pair_gold[i] for i in indices]))
                if any(pair_unverified[i] for i in indices):
                    segment_unverified += 1
            segment_preds.extend(seg_pred_labels)
            segment_golds.extend(seg_gold_labels)
            response_preds.append(derive_response_label(seg_pred_labels))
            response_golds.append(derive_response_label(seg_gold_labels))
        else:
            response_preds.append(derive_segment_label(list(pair_pred.values())))
            response_golds.append(derive_segment_label(list(pair_gold.values())))
        if any(pair_unverified.values()):
            response_unverified += 1

    return ConvertedPredictions(
        claim=AlignedLabels(tuple(claim_preds), tuple(claim_golds), claim_unverified),
        segment=AlignedLabels(tuple(segment_preds), tuple(segment_golds),
                              segment_unverified),
        response=AlignedLabels(tuple(response_preds), tuple(response_golds),
                               response_unverified),
        claim_categories=tuple(claim_cats),
    )
