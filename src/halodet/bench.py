"""Input decoding, corpus statistics, and result alignment.

Every JSON file ``detect`` reads is decoded here: benchmark files in the
versioned ``mhalubench.v1`` schema shipped under ``schema/``, bare single-pair
files, and self-check demonstration files. Each check fails with a JSON pointer.
Image digests are verified when the image files are actually present; metrics
need no pixels, so a missing file just means digest-only mode.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
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
    Verdict,
    pair_id_problem,
    validate_pair,
)
from .stages import SelfCheckDemo

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
# One walk checks each field and builds the value from it. A failed check raises
# SchemaViolation at the JSON pointer made of ``at``; none is built otherwise.
# ``gold`` is set for benchmark pairs, which need claims and gold labels.

_At = tuple[str | int, ...]


def _violation(message: str, *at: str | int) -> SchemaViolation:
    return SchemaViolation("/" + "/".join(map(str, at)), message)


def _member(members: dict[str, Any], value: Any, *at: str | int) -> Any:
    if not isinstance(value, str):
        raise _violation("expected a string", *at)
    if value not in members:
        raise _violation(f"{value!r} is not one of {sorted(members)}", *at)
    return members[value]


def _text(value: Any, *at: str | int) -> str:
    if not (isinstance(value, str) and value):
        raise _violation("expected a non-empty string", *at)
    return value


def _read(path: Path) -> Any:
    try:
        return json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise SchemaViolation("/", f"not valid JSON: {exc}") from exc


def _image(data: Any, at: _At) -> ImageRef:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    path, digest = _text(data.get("path"), *at, "path"), data.get("digest")
    if not (isinstance(digest, str) and _DIGEST_RE.fullmatch(digest)):
        raise _violation("expected a 64-hex sha256 digest", *at, "digest")
    return ImageRef(path, digest)


def _check_image_file(image: ImageRef, folder: Path, at: _At) -> None:
    """Compare the digest with the image file's bytes when the file is present."""
    image_path = os.path.join(folder, image.path)
    if os.path.isfile(image_path):
        actual = sha256_file(image_path)
        if actual != image.digest:
            raise _violation(f"file digest {actual} does not match recorded digest",
                             *at, "digest")


def _claim(data: Any, at: _At, gold: bool) -> Claim:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    index = data.get("index")
    if type(index) is not int:  # a JSON true or false is a bool, not an integer
        raise _violation("expected an integer", *at, "index")
    text, label = _text(data.get("text"), *at, "text"), None
    if "gold_label" in data:
        label = _member(_LABELS, data["gold_label"], *at, "gold_label")
    elif gold:
        raise _violation("benchmark claims need a gold label", *at, "gold_label")
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


def _segment(data: Any, at: _At) -> Segment:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    segment_id = _text(data.get("id"), *at, "id")
    text, indices = data.get("text"), data.get("claim_indices")
    if not isinstance(text, str):
        raise _violation("expected a string", *at, "text")
    if not (isinstance(indices, list) and indices):
        raise _violation("expected a non-empty list", *at, "claim_indices")
    for k, index in enumerate(indices):
        if type(index) is not int:
            raise _violation("expected an integer", *at, "claim_indices", k)
    return Segment(segment_id, text, tuple(indices))


def _pair(data: Any, at: _At, gold: bool) -> ImageTextPair:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    pair_id = data.get("id")
    if not isinstance(pair_id, str):
        raise _violation("expected a string", *at, "id")
    id_problem = pair_id_problem(pair_id)
    if id_problem is not None:
        raise _violation(id_problem, *at, "id")
    task = _member(_TASKS, data.get("task"), *at, "task")
    image = _image(data.get("image"), (*at, "image"))
    text, claims = _text(data.get("text"), *at, "text"), data.get("claims", [])
    if not (isinstance(claims, list) and (claims or not gold)):
        raise _violation("expected a non-empty list" if gold else "expected a list",
                         *at, "claims")
    claims = tuple([_claim(item, (*at, "claims", j), gold) for j, item in enumerate(claims)])
    segments = data.get("segments")
    if "segments" in data:
        if not isinstance(segments, list):
            raise _violation("expected a list", *at, "segments")
        segments = tuple([_segment(item, (*at, "segments", j))
                          for j, item in enumerate(segments)])
    return ImageTextPair(pair_id, task, image, text, claims, segments)


def _checked_pair(data: Any, at: _At, folder: Path, gold: bool) -> ImageTextPair:
    """Walk one pair, check its invariants, then its image file if present."""
    pair = _pair(data, at, gold)
    violations = validate_pair(pair)
    if violations:
        raise _violation("; ".join(violations), *at)
    _check_image_file(pair.image, folder, (*at, "image"))
    return pair


def _benchmark(data: Any, folder: Path) -> BenchmarkFile:
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
        pair = _checked_pair(pair_json, ("pairs", i), folder, gold=True)
        if pair.id in seen_ids:
            raise _violation(f"duplicate pair id {pair.id!r}", "pairs", i, "id")
        seen_ids.add(pair.id)
        pairs.append(pair)

    return BenchmarkFile(version=version, pairs=tuple(pairs), provenance=dict(provenance))


def load(path: str | Path) -> BenchmarkFile:
    """Load and fully validate one benchmark file, and each image file present."""
    path = Path(path)
    return _benchmark(_read(path), path.parent)


def save(bench: BenchmarkFile, path: str | Path) -> None:
    """Write the canonical serialization; load(save(x)) == x."""
    Path(path).write_text(
        json.dumps(bench.to_json(), ensure_ascii=False, indent=2) + "\n", "utf-8"
    )


def load_detection_input(path: str | Path) -> tuple[ImageTextPair, ...]:
    """Read detect's input: a benchmark file or a bare single-pair file.

    A single-pair file holds one pair object with no version envelope. It gets
    every check a benchmark pair gets, but may omit claims and gold labels.
    """
    path = Path(path)
    data = _read(path)
    if isinstance(data, dict) and "version" in data:
        return _benchmark(data, path.parent).pairs
    return (_checked_pair(data, (), path.parent, gold=False),)


def _demo_verdict(data: Any, at: _At, index: int) -> Verdict:
    if not isinstance(data, dict):
        raise _violation("expected an object", *at)
    label = _member(_LABELS, data.get("label"), *at, "label")
    return Verdict(index, label, _text(data.get("reason"), *at, "reason"))


def load_demos(path: str | Path) -> list[SelfCheckDemo]:
    """Read the two worked demonstrations that 2-shot self-check shows the model.

    The file holds a list of two objects, each an ``image`` reference, a
    non-empty list of ``claims`` and one ``{"label", "reason"}`` verdict per claim.
    """
    path = Path(path)
    data = _read(path)
    if not (isinstance(data, list) and len(data) == 2):
        raise _violation("expected a list of exactly 2 demonstrations")
    demos = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise _violation("expected an object", i)
        image = _image(entry.get("image"), (i, "image"))
        _check_image_file(image, path.parent, (i, "image"))
        claims, verdicts = entry.get("claims"), entry.get("verdicts")
        if not (isinstance(claims, list) and claims):
            raise _violation("expected a non-empty list", i, "claims")
        claims = tuple([_text(claim, i, "claims", j) for j, claim in enumerate(claims)])
        if not (isinstance(verdicts, list) and len(verdicts) == len(claims)):
            raise _violation("expected a list with one verdict per claim", i, "verdicts")
        verdicts = tuple([_demo_verdict(item, (i, "verdicts", j), j + 1)
                          for j, item in enumerate(verdicts)])
        demos.append(SelfCheckDemo(image, claims, verdicts))
    return demos


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
    labelled = [claim for pair in bench.pairs for claim in pair.claims
                if claim.gold_label is not None]
    return CorpusStats(
        n_pairs=len(bench.pairs),
        n_claims=sum(len(pair.claims) for pair in bench.pairs),
        n_segments=sum(len(pair.segments or ()) for pair in bench.pairs),
        task_counts=dict(Counter(pair.task.value for pair in bench.pairs)),
        claims_per_pair=dict(Counter(len(pair.claims) for pair in bench.pairs)),
        label_counts=dict(Counter(claim.gold_label.value for claim in labelled)),
        category_counts=dict(Counter(
            category.value for claim in labelled if claim.gold_label is Label.HALLUCINATORY
            for category in claim.gold_categories or ())),
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

    A pair's claims group into its segments, or into one group when it has
    none; a group is hallucinatory iff one of its claims is, and a response
    iff one of its groups is. Segment-level vectors cover only pairs that
    carry segments. A segment counts as unverified when it holds an
    unverified claim, and a response when its pair holds one.
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
        unverified = {v.claim_index for v in result.verdicts
                      if ParseFlag.UNVERIFIED in v.parse_flags}
        pair_gold = {}
        for claim in pair.claims:
            if claim.gold_label is None:
                raise IndexMismatch(f"pair {pair.id!r}: claim {claim.index} has no gold label")
            pair_gold[claim.index] = claim.gold_label
            claim_preds.append(pair_pred[claim.index])
            claim_golds.append(claim.gold_label)
            claim_cats.append(claim.gold_categories)
        claim_unverified += len(unverified)

        groups = ([indices] if pair.segments is None
                  else [segment.claim_indices for segment in pair.segments])
        group_preds = [derive_segment_label([pair_pred[i] for i in g]) for g in groups]
        group_golds = [derive_segment_label([pair_gold[i] for i in g]) for g in groups]
        if pair.segments is not None:
            segment_preds.extend(group_preds)
            segment_golds.extend(group_golds)
            segment_unverified += sum(not unverified.isdisjoint(g) for g in groups)
        response_preds.append(derive_response_label(group_preds))
        response_golds.append(derive_response_label(group_golds))
        response_unverified += bool(unverified)

    return ConvertedPredictions(
        claim=AlignedLabels(tuple(claim_preds), tuple(claim_golds), claim_unverified),
        segment=AlignedLabels(tuple(segment_preds), tuple(segment_golds),
                              segment_unverified),
        response=AlignedLabels(tuple(response_preds), tuple(response_golds),
                               response_unverified),
        claim_categories=tuple(claim_cats),
    )
