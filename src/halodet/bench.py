"""Benchmark file schema, loader, corpus statistics, and result alignment.

The on-disk format is the versioned ``mhalubench.v1`` JSON schema shipped
under ``schema/``. The loader enforces structure with JSON-pointer error
paths, requires a gold label on every claim, and verifies image digests when
the image files are actually present; metrics need no pixels, so a missing
file just means digest-only mode.
"""

from __future__ import annotations

import json
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
    HallucinationCategory,
    ImageTextPair,
    Label,
    ParseFlag,
    TaskType,
    pair_id_problem,
    validate_pair,
)

SCHEMA_VERSION = "mhalubench.v1"

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")
_TASK_VALUES = {t.value for t in TaskType}
_LABEL_VALUES = {label.value for label in Label}
_CATEGORY_VALUES = {c.value for c in HallucinationCategory}


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


# --- structural validation with pointer paths ------------------------------------


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaViolation(path, message)


def _check_enum(value: Any, allowed: set[str], path: str) -> None:
    _expect(isinstance(value, str), path, "expected a string")
    _expect(value in allowed, path, f"{value!r} is not one of {sorted(allowed)}")


def _validate_claim(data: Any, path: str) -> None:
    _expect(isinstance(data, dict), path, "expected an object")
    _expect(isinstance(data.get("index"), int), f"{path}/index", "expected an integer")
    _expect(isinstance(data.get("text"), str) and data["text"],
            f"{path}/text", "expected a non-empty string")
    _expect("gold_label" in data, f"{path}/gold_label", "benchmark claims need a gold label")
    _check_enum(data["gold_label"], _LABEL_VALUES, f"{path}/gold_label")
    if "gold_categories" in data:
        cats = data["gold_categories"]
        _expect(isinstance(cats, list), f"{path}/gold_categories", "expected a list")
        for j, cat in enumerate(cats):
            _check_enum(cat, _CATEGORY_VALUES, f"{path}/gold_categories/{j}")
    if "segment_id" in data:
        _expect(isinstance(data["segment_id"], str), f"{path}/segment_id",
                "expected a string")


def _validate_segment(data: Any, path: str) -> None:
    _expect(isinstance(data, dict), path, "expected an object")
    _expect(isinstance(data.get("id"), str) and data["id"], f"{path}/id",
            "expected a non-empty string")
    _expect(isinstance(data.get("text"), str), f"{path}/text", "expected a string")
    indices = data.get("claim_indices")
    _expect(isinstance(indices, list) and indices, f"{path}/claim_indices",
            "expected a non-empty list")
    for j, index in enumerate(indices):
        _expect(isinstance(index, int), f"{path}/claim_indices/{j}", "expected an integer")


def _validate_pair_json(data: Any, path: str) -> None:
    _expect(isinstance(data, dict), path, "expected an object")
    _expect(isinstance(data.get("id"), str), f"{path}/id", "expected a string")
    id_problem = pair_id_problem(data["id"])
    _expect(id_problem is None, f"{path}/id", id_problem or "")
    _check_enum(data.get("task"), _TASK_VALUES, f"{path}/task")
    image = data.get("image")
    _expect(isinstance(image, dict), f"{path}/image", "expected an object")
    _expect(isinstance(image.get("path"), str) and image["path"],
            f"{path}/image/path", "expected a non-empty string")
    _expect(isinstance(image.get("digest"), str)
            and bool(_DIGEST_RE.match(image.get("digest", ""))),
            f"{path}/image/digest", "expected a 64-hex sha256 digest")
    _expect(isinstance(data.get("text"), str) and data["text"], f"{path}/text",
            "expected a non-empty string")
    claims = data.get("claims")
    _expect(isinstance(claims, list) and claims, f"{path}/claims",
            "expected a non-empty list")
    for i, claim in enumerate(claims):
        _validate_claim(claim, f"{path}/claims/{i}")
    if "segments" in data:
        segments = data["segments"]
        _expect(isinstance(segments, list), f"{path}/segments", "expected a list")
        for i, segment in enumerate(segments):
            _validate_segment(segment, f"{path}/segments/{i}")


def load(path: str | Path) -> BenchmarkFile:
    """Load and fully validate one benchmark file, and each image file present."""
    path = Path(path)
    try:
        data = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc

    _expect(isinstance(data, dict), "/", "expected an object")
    version = data.get("version")
    if not isinstance(version, str) or version != SCHEMA_VERSION:
        raise UnsupportedVersion(str(version))
    pairs_json = data.get("pairs")
    _expect(isinstance(pairs_json, list), "/pairs", "expected a list")
    provenance = data.get("provenance", {})
    _expect(isinstance(provenance, dict), "/provenance", "expected an object")

    pairs = []
    seen_ids: set[str] = set()
    for i, pair_json in enumerate(pairs_json):
        pointer = f"/pairs/{i}"
        _validate_pair_json(pair_json, pointer)
        pair = ImageTextPair.from_json(pair_json)
        if pair.id in seen_ids:
            raise SchemaViolation(f"{pointer}/id", f"duplicate pair id {pair.id!r}")
        seen_ids.add(pair.id)
        report = validate_pair(pair)
        if not report.ok:
            raise SchemaViolation(pointer, "; ".join(report.violations))
        image_path = path.parent / pair.image.path
        if image_path.is_file():
            actual = sha256_file(str(image_path))
            if actual != pair.image.digest:
                raise SchemaViolation(
                    f"{pointer}/image/digest",
                    f"file digest {actual} does not match recorded digest",
                )
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
