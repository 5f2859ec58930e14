"""Label aggregation and the benchmark metric suite.

Labels aggregate upward by an any-of rule: a segment is hallucinatory iff
any of its claims is, a response iff any of its segments is. Detection
quality is scored per class (hallucinatory / non-hallucinatory) with
precision, recall, and F1, plus accuracy and the unweighted per-class
averages; macro-F1 is the mean of the two class F1 scores.

Any 0/0 ratio is 0 by convention, and the convention is recorded on the
report so downstream comparisons are explicit about it. Percentages render
with two decimals, rounding halves away from zero.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Any, ClassVar, Mapping, Sequence

from .errors import (
    EmptyResponse,
    EmptySegment,
    InvalidMatrix,
    LengthMismatch,
    MissingCategoryTags,
)
from .model import HallucinationCategory, Label

ZERO_DIVISION_CONVENTION = "0/0 -> 0"


class MetricLevel(Enum):
    CLAIM = "claim"
    SEGMENT = "segment"
    RESPONSE = "response"


def derive_segment_label(claim_labels: Sequence[Label]) -> Label:
    """A segment is hallucinatory iff it contains any hallucinatory claim."""
    if not claim_labels:
        raise EmptySegment("segment has no claim labels")
    if Label.HALLUCINATORY in claim_labels:
        return Label.HALLUCINATORY
    return Label.NON_HALLUCINATORY


def derive_response_label(segment_labels: Sequence[Label]) -> Label:
    """A response is hallucinatory iff it contains any hallucinatory segment."""
    if not segment_labels:
        raise EmptyResponse("response has no segment labels")
    if Label.HALLUCINATORY in segment_labels:
        return Label.HALLUCINATORY
    return Label.NON_HALLUCINATORY


# --- confusion counting -------------------------------------------------------


@dataclass(frozen=True)
class ClassCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")


@dataclass(frozen=True)
class PRF1:
    precision: float
    recall: float
    f1: float


def prf1(counts: ClassCounts) -> PRF1:
    """Precision, recall, F1 for one class; all 0/0 cases resolve to 0."""
    precision = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    recall = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return PRF1(precision=precision, recall=recall, f1=f1)


@dataclass(frozen=True)
class MetricsReport:
    """The full score sheet at one granularity; values are fractions in [0, 1]."""

    level: MetricLevel
    hallucinatory: PRF1
    non_hallucinatory: PRF1
    accuracy: float
    avg_precision: float
    avg_recall: float
    macro_f1: float
    total: int
    unverified_count: int = 0
    zero_division: ClassVar[str] = ZERO_DIVISION_CONVENTION

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {"level": self.level.value}
        for _, _, field in _SCORE_COLUMNS:
            group, _, name = field.rpartition(".")
            target = payload.setdefault(group, {}) if group else payload
            target[name] = percent_value(attrgetter(field)(self))
        payload.update(total=self.total, unverified_count=self.unverified_count,
                       zero_division=self.zero_division)
        return payload


def report(
    preds: Sequence[Label],
    golds: Sequence[Label],
    level: MetricLevel = MetricLevel.CLAIM,
    unverified_count: int = 0,
) -> MetricsReport:
    """Score aligned prediction/gold vectors at one granularity."""
    if len(preds) != len(golds):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(golds)} golds")
    if not preds:
        raise LengthMismatch("empty label vectors")
    counts = {label: [0, 0, 0] for label in Label}  # per class: tp, fp, fn
    for pred, gold in zip(preds, golds):
        if pred is gold:
            counts[pred][0] += 1
        else:
            counts[pred][1] += 1
            counts[gold][2] += 1
    h = prf1(ClassCounts(*counts[Label.HALLUCINATORY]))
    nh = prf1(ClassCounts(*counts[Label.NON_HALLUCINATORY]))
    return MetricsReport(
        level=level,
        hallucinatory=h,
        non_hallucinatory=nh,
        accuracy=sum(tp for tp, _, _ in counts.values()) / len(preds),
        avg_precision=(h.precision + nh.precision) / 2,
        avg_recall=(h.recall + nh.recall) / 2,
        macro_f1=(h.f1 + nh.f1) / 2,
        total=len(preds),
        unverified_count=unverified_count,
    )


# --- inter-annotator agreement ----------------------------------------------------


@dataclass(frozen=True)
class RatingsMatrix:
    """Items x categories table of annotator counts; constant raters per row."""

    rows: tuple[tuple[int, ...], ...]

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[int]]) -> "RatingsMatrix":
        return cls(rows=tuple(tuple(row) for row in rows))

    @property
    def n_raters(self) -> int:
        return sum(self.rows[0])

    def validate(self) -> None:
        if not self.rows:
            raise InvalidMatrix("matrix has no rows")
        widths = {len(row) for row in self.rows}
        if len(widths) != 1 or 0 in widths:
            raise InvalidMatrix("rows must share one non-zero category count")
        if any(type(cell) is not int for row in self.rows for cell in row):  # bool too
            raise InvalidMatrix("cell counts must be integers")
        if any(cell < 0 for row in self.rows for cell in row):
            raise InvalidMatrix("cell counts must be non-negative")
        n = self.n_raters
        if n < 2:
            raise InvalidMatrix(f"need at least 2 raters, got {n}")
        unequal = [i for i, row in enumerate(self.rows) if sum(row) != n]
        if unequal:
            raise InvalidMatrix(f"rows {unequal} do not sum to {n} raters")


def fleiss_kappa(matrix: RatingsMatrix) -> float:
    """Chance-corrected multi-rater agreement.

    Observed agreement averages, per item, the fraction of rater pairs that
    agree; expected agreement is the sum of squared category marginals.
    Exact rational arithmetic keeps unanimity at exactly 1.0.

    Kappa is defined on every valid matrix. Expected agreement is 1 only
    when one category holds every rating; rows all sum to n, so each row is
    then n in that column, observed agreement is 1 too, and the unanimity
    return comes first.
    """
    matrix.validate()
    if len(matrix.rows) < 2:
        raise InvalidMatrix("need at least 2 items")
    n = matrix.n_raters
    n_items = len(matrix.rows)

    per_item = [
        Fraction(sum(cell * cell for cell in row) - n, n * (n - 1))
        for row in matrix.rows
    ]
    observed = Fraction(sum(per_item), n_items)
    marginals = [Fraction(sum(column), n_items * n) for column in zip(*matrix.rows)]
    expected = sum(p * p for p in marginals)

    if observed == 1:
        return 1.0
    return float((observed - expected) / (1 - expected))


# --- per-category analysis -----------------------------------------------------------


def per_category_recall(
    preds: Sequence[Label],
    golds: Sequence[Label],
    categories: Sequence[frozenset[HallucinationCategory] | None],
) -> dict[HallucinationCategory, float]:
    """Recall over gold-hallucinatory claims, split by category tag.

    A claim counts toward every category it carries (once per category).
    Only categories that actually occur appear in the result.
    """
    if not len(preds) == len(golds) == len(categories):
        raise LengthMismatch("preds, golds, categories must align")
    detected: dict[HallucinationCategory, int] = {}
    tagged: dict[HallucinationCategory, int] = {}
    for pred, gold, tags in zip(preds, golds, categories):
        if gold is not Label.HALLUCINATORY:
            continue
        if not tags:
            raise MissingCategoryTags("gold-hallucinatory claim without category tags")
        for tag in tags:
            tagged[tag] = tagged.get(tag, 0) + 1
            if pred is Label.HALLUCINATORY:
                detected[tag] = detected.get(tag, 0) + 1
    return {
        category: detected.get(category, 0) / count
        for category, count in tagged.items()
    }


# --- rendering ------------------------------------------------------------------------


def format_percent(value: float) -> str:
    """Two-decimal percentage, halves rounded away from zero."""
    return str(Decimal(repr(value * 100)).quantize(Decimal("0.01"), ROUND_HALF_UP))


def percent_value(value: float) -> float:
    return float(format_percent(value))


# The score columns, in order: table header, CSV header, and the report field;
# the JSON nests a dotted field under its class.
_SCORE_COLUMNS = (
    ("H-P", "h_precision", "hallucinatory.precision"),
    ("H-R", "h_recall", "hallucinatory.recall"),
    ("H-F1", "h_f1", "hallucinatory.f1"),
    ("NH-P", "nh_precision", "non_hallucinatory.precision"),
    ("NH-R", "nh_recall", "non_hallucinatory.recall"),
    ("NH-F1", "nh_f1", "non_hallucinatory.f1"),
    ("Acc.", "accuracy", "accuracy"),
    ("Avg.P", "avg_precision", "avg_precision"),
    ("Avg.R", "avg_recall", "avg_recall"),
    ("Mac.F1", "macro_f1", "macro_f1"),
)


def _score_row(rep: MetricsReport) -> list[str]:
    """The report's level, then its score columns as percentages."""
    return [rep.level.value] + [format_percent(attrgetter(field)(rep))
                                for _, _, field in _SCORE_COLUMNS]


def _by_category(recall: Mapping[HallucinationCategory, float]) -> list[tuple[str, float]]:
    """Category name and recall, in name order."""
    return sorted((category.value, value) for category, value in recall.items())


def render_table(
    reports: Sequence[MetricsReport],
    category_recall: Mapping[HallucinationCategory, float] | None = None,
) -> str:
    """Aligned text table: per-class P/R/F1, the averaged columns, then any category recall."""
    header = ["Level"] + [title for title, _, _ in _SCORE_COLUMNS]
    rows = [header] + [_score_row(rep) for rep in reports]
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for index, row in enumerate(rows):
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
        if index == 0:
            lines.append("-" * len(lines[0]))
    if category_recall:
        lines.append("per-category recall (hallucinatory claims):")
        lines += [f"  {name}: {format_percent(value)}"
                  for name, value in _by_category(category_recall)]
    return "\n".join(lines)


def render_json(
    reports: Sequence[MetricsReport],
    category_recall: Mapping[HallucinationCategory, float] | None = None,
) -> str:
    payload: dict[str, Any] = {"reports": [rep.to_json() for rep in reports]}
    if category_recall is not None:
        payload["category_recall"] = {
            name: percent_value(value) for name, value in _by_category(category_recall)}
    return json.dumps(payload, indent=2, sort_keys=True)


def render_csv(reports: Sequence[MetricsReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["level"] + [name for _, name, _ in _SCORE_COLUMNS]
                    + ["total", "unverified_count"])
    for rep in reports:
        writer.writerow(_score_row(rep) + [rep.total, rep.unverified_count])
    return buffer.getvalue()
