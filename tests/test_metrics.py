"""Metric suite against independent oracles and the recorded score rows."""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halodet.errors import (
    EmptyResponse,
    EmptySegment,
    InvalidMatrix,
    LengthMismatch,
    MissingCategoryTags,
)
from halodet.metrics import (
    ClassCounts,
    MetricLevel,
    RatingsMatrix,
    derive_response_label,
    derive_segment_label,
    fleiss_kappa,
    format_percent,
    per_category_recall,
    prf1,
    render_csv,
    render_json,
    render_table,
    report,
)
from halodet.model import HallucinationCategory, Label

H = Label.HALLUCINATORY
NH = Label.NON_HALLUCINATORY

FIXTURES = Path(__file__).parent / "fixtures"


# --- oracles -------------------------------------------------------------------


def oracle_counts(preds, golds, positive):
    """Recount one class's confusion cells straight from the definition."""
    pairs = Counter(zip(preds, golds))
    tp = pairs[(positive, positive)]
    fp = sum(n for (p, g), n in pairs.items() if p is positive and g is not positive)
    fn = sum(n for (p, g), n in pairs.items() if p is not positive and g is positive)
    return tp, fp, fn


def oracle_prf1(tp, fp, fn):
    precision = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
    recall = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else Fraction(0))
    return float(precision), float(recall), float(f1)


def oracle_fleiss(rows, n):
    """Direct evaluation of the agreement formula, floats, no shortcuts."""
    n_items = len(rows)
    n_cats = len(rows[0])
    p_bar = sum(
        (sum(c * c for c in row) - n) / (n * (n - 1)) for row in rows
    ) / n_items
    marginals = [sum(row[j] for row in rows) / (n_items * n) for j in range(n_cats)]
    pe_bar = sum(p * p for p in marginals)
    return (p_bar - pe_bar) / (1 - pe_bar)


# --- aggregation -----------------------------------------------------------------


class TestAggregation:
    def test_any_hallucinatory_claim_marks_segment(self):
        assert derive_segment_label([H, NH]) is H

    def test_all_clear_segment(self):
        assert derive_segment_label([NH, NH, NH]) is NH

    def test_empty_segment(self):
        with pytest.raises(EmptySegment):
            derive_segment_label([])

    def test_response_rules(self):
        assert derive_response_label([NH, H]) is H
        assert derive_response_label([NH]) is NH
        with pytest.raises(EmptyResponse):
            derive_response_label([])

    @given(st.lists(st.sampled_from([H, NH]), min_size=1, max_size=30))
    def test_equals_any_of_oracle(self, labels):
        expected = H if any(label is H for label in labels) else NH
        assert derive_segment_label(labels) is expected
        assert derive_response_label(labels) is expected

    @given(st.lists(st.sampled_from([H, NH]), min_size=1, max_size=20),
           st.integers(min_value=0, max_value=19))
    def test_flipping_to_hallucinatory_is_monotone(self, labels, position):
        position = position % len(labels)
        before = derive_segment_label(labels)
        flipped = list(labels)
        flipped[position] = H
        after = derive_segment_label(flipped)
        assert not (before is H and after is NH)


# --- prf1 and report -----------------------------------------------------------------


class TestPrf1:
    def test_toy_counting_case(self):
        scores = prf1(ClassCounts(tp=2, fp=1, fn=1))
        assert scores.precision == pytest.approx(2 / 3, abs=1e-12)
        assert scores.recall == pytest.approx(2 / 3, abs=1e-12)
        assert scores.f1 == pytest.approx(2 / 3, abs=1e-12)

    def test_all_zero_convention(self):
        scores = prf1(ClassCounts(0, 0, 0))
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("counts", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_a_negative_count_is_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be non-negative"):
            ClassCounts(*counts)

    def test_published_row_f1_from_p_and_r(self):
        # Harmonic mean of the recorded P/R must land on the recorded F1.
        p, r = 0.8254, 0.8529
        f1 = 2 * p * r / (p + r)
        assert f1 == pytest.approx(0.8389, abs=1e-4)


class TestReport:
    def test_identity_predictions(self):
        golds = [H, NH, H, NH, NH]
        rep = report(golds, golds)
        assert rep.accuracy == 1.0
        assert rep.hallucinatory.f1 == 1.0
        assert rep.non_hallucinatory.f1 == 1.0
        assert rep.macro_f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            report([H], [H, NH])

    def test_empty_vectors_rejected(self):
        with pytest.raises(LengthMismatch):
            report([], [])

    def test_matches_brute_force_oracle_on_seeded_vectors(self):
        rng = random.Random(2024)
        for _ in range(300):
            size = rng.randint(1, 200)
            preds = [rng.choice([H, NH]) for _ in range(size)]
            golds = [rng.choice([H, NH]) for _ in range(size)]
            rep = report(preds, golds)
            for positive, scores in ((H, rep.hallucinatory), (NH, rep.non_hallucinatory)):
                tp, fp, fn = oracle_counts(preds, golds, positive)
                precision, recall, f1 = oracle_prf1(tp, fp, fn)
                assert scores.precision == pytest.approx(precision, abs=1e-12)
                assert scores.recall == pytest.approx(recall, abs=1e-12)
                assert scores.f1 == pytest.approx(f1, abs=1e-9)
            matches = sum(p is g for p, g in zip(preds, golds))
            assert rep.accuracy == pytest.approx(matches / size, abs=1e-12)
            assert rep.macro_f1 == pytest.approx(
                (rep.hallucinatory.f1 + rep.non_hallucinatory.f1) / 2, abs=1e-12)

    @given(st.lists(st.tuples(st.sampled_from([H, NH]), st.sampled_from([H, NH])),
                    min_size=1, max_size=200))
    def test_macro_and_averages_are_means(self, pairs):
        preds = [p for p, _ in pairs]
        golds = [g for _, g in pairs]
        rep = report(preds, golds)
        assert rep.avg_precision == pytest.approx(
            (rep.hallucinatory.precision + rep.non_hallucinatory.precision) / 2)
        assert rep.avg_recall == pytest.approx(
            (rep.hallucinatory.recall + rep.non_hallucinatory.recall) / 2)
        assert 0.0 <= rep.macro_f1 <= 1.0


@pytest.fixture(scope="module")
def rows():
    return json.loads((FIXTURES / "reported_scores.json").read_text())["rows"]


class TestRecordedScoreRows:
    """The 24 recorded benchmark rows must be arithmetically self-consistent."""

    def test_row_count(self, rows):
        assert len(rows) == 24

    def test_f1_follows_from_p_and_r(self, rows):
        for row in rows:
            h_p, h_r, h_f1, nh_p, nh_r, nh_f1 = row["scores"][:6]
            for p, r, f1 in ((h_p, h_r, h_f1), (nh_p, nh_r, nh_f1)):
                recomputed = 2 * p * r / (p + r)
                assert recomputed == pytest.approx(f1, abs=0.01), row

    def test_averages_follow_from_class_values(self, rows):
        for row in rows:
            h_p, h_r, h_f1, nh_p, nh_r, nh_f1, _acc, avg_p, avg_r, macro = row["scores"]
            assert (h_p + nh_p) / 2 == pytest.approx(avg_p, abs=0.01), row
            assert (h_r + nh_r) / 2 == pytest.approx(avg_r, abs=0.01), row
            assert (h_f1 + nh_f1) / 2 == pytest.approx(macro, abs=0.01), row

    def test_example_macro_row(self, rows):
        row = next(r for r in rows if r["backend"] == "gpt-4v"
                   and r["method"] == "unihd" and r["level"] == "claim"
                   and r["task"] == "image-to-text")
        h_f1, nh_f1, macro = row["scores"][2], row["scores"][5], row["scores"][9]
        assert (h_f1, nh_f1, macro) == (83.89, 79.38, 81.63)
        assert (h_f1 + nh_f1) / 2 == pytest.approx(macro, abs=0.005)


# --- agreement ---------------------------------------------------------------------


class TestFleissKappa:
    def test_unanimous_is_exactly_one(self):
        matrix = RatingsMatrix.from_lists([[3, 0], [0, 3], [3, 0], [3, 0]])
        assert fleiss_kappa(matrix) == 1.0

    def test_two_row_worked_case(self):
        matrix = RatingsMatrix.from_lists([[2, 1], [2, 1]])
        value = fleiss_kappa(matrix)
        assert value == pytest.approx(-0.5, abs=1e-9)
        assert value == pytest.approx(oracle_fleiss([[2, 1], [2, 1]], 3), abs=1e-9)

    def test_unequal_row_sums(self):
        with pytest.raises(InvalidMatrix):
            fleiss_kappa(RatingsMatrix.from_lists([[2, 1], [2, 2]]))

    def test_single_rater_rejected(self):
        with pytest.raises(InvalidMatrix):
            fleiss_kappa(RatingsMatrix.from_lists([[1, 0], [0, 1]]))

    def test_single_item_rejected(self):
        with pytest.raises(InvalidMatrix):
            fleiss_kappa(RatingsMatrix.from_lists([[2, 1]]))

    @pytest.mark.parametrize("rows, message", [
        ([], "matrix has no rows"),
        ([[2, 1], [3]], "rows must share one non-zero category count"),
        ([[], []], "rows must share one non-zero category count"),
        ([[3, -1], [1, 1]], "cell counts must be non-negative"),
        ([[2.9, 0.1], [1.5, 1.5]], "cell counts must be integers"),
        ([["2", "1"], [True, 2]], "cell counts must be integers"),
        ([[1, 1], [True, 1]], "cell counts must be integers"),
    ])
    def test_a_malformed_matrix_is_rejected(self, rows, message):
        with pytest.raises(InvalidMatrix, match=message):
            RatingsMatrix.from_lists(rows).validate()

    def test_range_and_oracle_on_random_matrices(self):
        rng = random.Random(99)
        checked = 0
        while checked < 1000:
            n_items = rng.randint(2, 12)
            n_cats = rng.randint(2, 5)
            n = rng.randint(2, 8)
            rows = []
            for _ in range(n_items):
                row = [0] * n_cats
                for _ in range(n):
                    row[rng.randrange(n_cats)] += 1
                rows.append(row)
            matrix = RatingsMatrix.from_lists(rows)
            value = fleiss_kappa(matrix)
            assert -1.0 <= value <= 1.0
            unanimous = all(max(row) == n for row in rows)
            if unanimous:
                assert value == 1.0
            else:
                assert value == pytest.approx(oracle_fleiss(rows, n), abs=1e-9)
                assert value < 1.0
            checked += 1


    @given(st.data())
    def test_total_on_every_valid_matrix(self, data):
        """Defined on every valid matrix: exactly 1.0 iff every row is unanimous."""
        n = data.draw(st.integers(2, 6))
        n_cats = data.draw(st.integers(1, 4))
        n_items = data.draw(st.integers(2, 8))
        rows = []
        for _ in range(n_items):
            ratings = data.draw(st.lists(st.integers(0, n_cats - 1), min_size=n, max_size=n))
            rows.append([ratings.count(j) for j in range(n_cats)])
        value = fleiss_kappa(RatingsMatrix.from_lists(rows))
        if all(max(row) == n for row in rows):
            assert value == 1.0
        else:
            assert value < 1.0


# --- per-category recall ----------------------------------------------------------------


OBJ = HallucinationCategory.OBJECT
SCN = HallucinationCategory.SCENE_TEXT


class TestPerCategoryRecall:
    def test_all_detected(self):
        preds = [H, H]
        golds = [H, H]
        cats = [frozenset({OBJ}), frozenset({SCN})]
        recall = per_category_recall(preds, golds, cats)
        assert recall[OBJ] == 1.0 and recall[SCN] == 1.0

    def test_half_detected_scene_text(self):
        preds = [H, NH, NH]
        golds = [H, H, NH]
        cats = [frozenset({SCN}), frozenset({SCN}), None]
        assert per_category_recall(preds, golds, cats)[SCN] == 0.5

    def test_multi_category_claim_counts_once_per_category(self):
        preds = [H]
        golds = [H]
        cats = [frozenset({OBJ, SCN})]
        recall = per_category_recall(preds, golds, cats)
        assert recall == {OBJ: 1.0, SCN: 1.0}

    def test_missing_tags(self):
        with pytest.raises(MissingCategoryTags):
            per_category_recall([H], [H], [None])

    def test_alignment_required(self):
        with pytest.raises(LengthMismatch):
            per_category_recall([H], [H, NH], [None, None])


# --- rendering -------------------------------------------------------------------------


class TestRendering:
    def test_percent_rounding_half_away_from_zero(self):
        assert format_percent(0.81635) == "81.64"
        assert format_percent(0.5) == "50.00"
        assert format_percent(2 / 3) == "66.67"
        assert format_percent(0.0) == "0.00"
        assert format_percent(1.0) == "100.00"

    def test_table_layout(self):
        rep = report([H, NH, H], [H, H, NH], MetricLevel.CLAIM)
        table = render_table([rep])
        lines = table.splitlines()
        assert lines[0].split() == [
            "Level", "H-P", "H-R", "H-F1", "NH-P", "NH-R", "NH-F1",
            "Acc.", "Avg.P", "Avg.R", "Mac.F1",
        ]
        assert lines[2].startswith("claim")

    def test_json_and_csv_shapes(self):
        rep = report([H, NH], [H, NH], MetricLevel.SEGMENT)
        payload = json.loads(render_json([rep], {OBJ: 0.5}))
        assert payload["reports"][0]["level"] == "segment"
        assert payload["reports"][0]["macro_f1"] == 100.0
        assert payload["category_recall"]["object"] == 50.0
        csv_text = render_csv([rep])
        header, row = csv_text.strip().splitlines()
        assert header.startswith("level,h_precision")
        assert row.startswith("segment,100.00")


# Three levels whose class scores differ in every column, with unverified
# counts, so a swapped or mis-rounded column changes the bytes.
GOLDEN_REPORTS = [
    report([H, H, NH, H, NH, NH, H], [H, NH, NH, H, H, NH, NH], MetricLevel.CLAIM, 2),
    report([H, H, NH, NH, NH, H], [H, H, H, H, NH, NH], MetricLevel.SEGMENT, 1),
    report([H, NH, NH], [H, H, NH], MetricLevel.RESPONSE, 1),
]
GOLDEN_RECALL = {OBJ: 2 / 3, SCN: 0.5, HallucinationCategory.FACT: 1 / 3}

GOLDEN_TABLE = """\
Level        H-P    H-R   H-F1   NH-P    NH-R  NH-F1   Acc.  Avg.P  Avg.R  Mac.F1
---------------------------------------------------------------------------------
claim      50.00  66.67  57.14  66.67   50.00  57.14  57.14  58.33  58.33   57.14
segment    66.67  50.00  57.14  33.33   50.00  40.00  50.00  50.00  50.00   48.57
response  100.00  50.00  66.67  50.00  100.00  66.67  66.67  75.00  75.00   66.67"""

GOLDEN_CSV = """\
level,h_precision,h_recall,h_f1,nh_precision,nh_recall,nh_f1,accuracy,avg_precision,avg_recall,macro_f1,total,unverified_count
claim,50.00,66.67,57.14,66.67,50.00,57.14,57.14,58.33,58.33,57.14,7,2
segment,66.67,50.00,57.14,33.33,50.00,40.00,50.00,50.00,50.00,48.57,6,1
response,100.00,50.00,66.67,50.00,100.00,66.67,66.67,75.00,75.00,66.67,3,1
"""

GOLDEN_JSON = """\
{
  "category_recall": {
    "fact": 33.33,
    "object": 66.67,
    "scene-text": 50.0
  },
  "reports": [
    {
      "accuracy": 57.14,
      "avg_precision": 58.33,
      "avg_recall": 58.33,
      "hallucinatory": {
        "f1": 57.14,
        "precision": 50.0,
        "recall": 66.67
      },
      "level": "claim",
      "macro_f1": 57.14,
      "non_hallucinatory": {
        "f1": 57.14,
        "precision": 66.67,
        "recall": 50.0
      },
      "total": 7,
      "unverified_count": 2,
      "zero_division": "0/0 -> 0"
    },
    {
      "accuracy": 50.0,
      "avg_precision": 50.0,
      "avg_recall": 50.0,
      "hallucinatory": {
        "f1": 57.14,
        "precision": 66.67,
        "recall": 50.0
      },
      "level": "segment",
      "macro_f1": 48.57,
      "non_hallucinatory": {
        "f1": 40.0,
        "precision": 33.33,
        "recall": 50.0
      },
      "total": 6,
      "unverified_count": 1,
      "zero_division": "0/0 -> 0"
    },
    {
      "accuracy": 66.67,
      "avg_precision": 75.0,
      "avg_recall": 75.0,
      "hallucinatory": {
        "f1": 66.67,
        "precision": 100.0,
        "recall": 50.0
      },
      "level": "response",
      "macro_f1": 66.67,
      "non_hallucinatory": {
        "f1": 66.67,
        "precision": 50.0,
        "recall": 100.0
      },
      "total": 3,
      "unverified_count": 1,
      "zero_division": "0/0 -> 0"
    }
  ]
}"""


class TestGoldenRendering:
    def test_table_bytes(self):
        assert render_table(GOLDEN_REPORTS) == GOLDEN_TABLE

    def test_json_bytes(self):
        assert render_json(GOLDEN_REPORTS, GOLDEN_RECALL) == GOLDEN_JSON

    def test_csv_bytes(self):
        assert render_csv(GOLDEN_REPORTS) == GOLDEN_CSV
