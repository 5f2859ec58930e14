"""Input files, corpus statistics, and result alignment.

Every JSON file ``detect`` reads is read here: benchmark files in the
versioned ``mhalubench.v1`` schema shipped under ``schema/``, bare single-pair
files, and self-check demonstration files. Each record in them is decoded by
its own ``from_json`` (see :mod:`halodet.model`), which rejects a key the
schema does not list; this module adds the file envelope and the checks that
span records. Every failed check raises SchemaViolation naming the file and
a JSON pointer.
Image digests are verified when the image files are actually present; metrics
need no pixels, so a missing file just means digest-only mode.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

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
    ImageRef,
    ImageTextPair,
    Label,
    ParseFlag,
    TaskType,
    each,
    invalid,
    record,
    typed,
    validate_pair,
    within,
)
from .stages import SelfCheckDemo

SCHEMA_VERSION = "mhalubench.v1"
T = TypeVar("T")


@dataclass(frozen=True)
class BenchmarkFile:
    version: str
    pairs: tuple[ImageTextPair, ...]
    provenance: dict[str, Any] = field(default_factory=dict)
    _KEYS = frozenset({"version", "provenance", "pairs"})

    def to_json(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "provenance": self.provenance,
            "pairs": [pair.to_json() for pair in self.pairs],
        }


# --- reading input files ------------------------------------------------------
# Each record decodes itself (see halodet.model); the checks here span records.


def _checked(path: Path, decode: Callable[[Any], T]) -> T:
    """``decode`` of the JSON in ``path``; a failed check is a SchemaViolation."""
    try:
        data = json.loads(path.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise SchemaViolation(str(path), "/", f"not valid JSON: {exc}") from exc
    try:
        return within(data, decode)
    except ValueError as exc:
        pointer, reason = exc.pointer, exc.reason  # type: ignore[attr-defined]
        raise SchemaViolation(str(path), pointer, reason) from None


def _check_image_file(image: ImageRef, folder: Path, *at: str | int) -> None:
    """Compare the digest with the image file's bytes when the file is present."""
    image_path = os.path.join(folder, image.path)
    if os.path.isfile(image_path):
        actual = sha256_file(image_path)
        if actual != image.digest:
            raise invalid(f"file digest {actual} does not match recorded digest",
                          *at, "digest")


def _checked_pair(data: Any, folder: Path, gold: bool) -> ImageTextPair:
    """Decode one pair, check its invariants, then its image file if present."""
    pair = ImageTextPair.from_json(data, gold)
    violations = validate_pair(pair)
    if violations:
        raise invalid("; ".join(violations))
    _check_image_file(pair.image, folder, "image")
    return pair


def _benchmark(data: Any, folder: Path) -> BenchmarkFile:
    if type(data) is not dict:
        raise invalid("expected an object")
    version = data.get("version")
    if version != SCHEMA_VERSION:
        raise UnsupportedVersion(str(version))
    record(data, BenchmarkFile._KEYS)
    provenance = typed(data.get("provenance", {}), dict, "provenance")
    pairs = each(data.get("pairs"), lambda pair: _checked_pair(pair, folder, gold=True),
                 "pairs")
    first_of: dict[str, int] = {}
    for i, pair in enumerate(pairs):
        if first_of.setdefault(pair.id, i) != i:
            raise invalid(f"duplicate pair id {pair.id!r}", "pairs", i, "id")
    return BenchmarkFile(version=version, pairs=pairs, provenance=dict(provenance))


def load(path: str | Path) -> BenchmarkFile:
    """Load and fully validate one benchmark file, and each image file present."""
    path = Path(path)
    return _checked(path, lambda data: _benchmark(data, path.parent))


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

    def pairs(data: Any) -> tuple[ImageTextPair, ...]:
        if isinstance(data, dict) and "version" in data:
            return _benchmark(data, path.parent).pairs
        return (_checked_pair(data, path.parent, gold=False),)

    return _checked(path, pairs)


def load_demos(path: str | Path) -> list[SelfCheckDemo]:
    """Read the two worked demonstrations that 2-shot self-check shows the model."""
    path = Path(path)

    def demos(data: Any) -> list[SelfCheckDemo]:
        if not (type(data) is list and len(data) == 2):
            raise invalid("expected a list of exactly 2 demonstrations")
        decoded = each(data, SelfCheckDemo.from_json)
        for i, demo in enumerate(decoded):
            _check_image_file(demo.image, path.parent, i, "image")
        return list(decoded)

    return _checked(path, demos)


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
        lines = [f"pairs: {self.n_pairs}   claims: {self.n_claims}   segments: {self.n_segments}"]
        for title, key in (("task counts", "task_counts"), ("claims per pair", "claims_per_pair"),
                           ("gold labels", "label_counts"),
                           ("categories over hallucinatory claims", "category_counts")):
            lines += [f"{title}:", *(f"  {k}: {v}" for k, v in data[key].items())]
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
