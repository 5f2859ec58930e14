"""Checks of a run directory and of evaluate's scores against the generator.

A pair passes when its per-pair file is byte-for-byte the file the generator
expects. A retry pair of a cache-on workload that comes out exactly in the
documented degraded form is the one known fault (the verification retry
replays the cached unparseable reply): it counts as failed but not as
incorrect. Anything else that differs makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import corpus


@dataclass
class RoundCheck:
    failed: set[str] = field(default_factory=set)
    known_fault: set[str] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)
    files: dict[str, bytes] = field(default_factory=dict)


def check_run_dir(cases: Sequence[corpus.PairCase], run_dir: Path, cache_on: bool,
                  reference: dict[str, bytes] | None = None) -> RoundCheck:
    """Compare every per-pair file, errors.json and the manifest's pair lists.

    ``reference`` holds per-pair files from an earlier pass that the files
    of this run directory must equal byte for byte.
    """
    result = RoundCheck()
    expected_ids = {case.pair_id for case in cases}
    present = {p.stem for p in run_dir.glob("*.json")} - {"manifest", "errors"}
    for extra in sorted(present - expected_ids):
        result.problems.append(f"{extra}: result file for a pair that was not sent")
    errors = json.loads((run_dir / "errors.json").read_text("utf-8"))
    for error in errors:
        result.problems.append(f"{error.get('pair_id')}: {error.get('error_type')}: "
                               f"{error.get('message')}")
        result.failed.add(str(error.get("pair_id")))
    for case in cases:
        path = run_dir / f"{case.pair_id}.json"
        if not path.is_file():
            result.failed.add(case.pair_id)
            result.problems.append(f"{case.pair_id}: no result file")
            continue
        data = path.read_bytes()
        result.files[case.pair_id] = data
        if reference is not None and reference.get(case.pair_id) != data:
            result.failed.add(case.pair_id)
            result.problems.append(f"{case.pair_id}: differs from the reference pass")
        elif data == case.expected:
            continue
        elif cache_on and case.retry and data == case.degraded:
            result.failed.add(case.pair_id)
            result.known_fault.add(case.pair_id)
        else:
            result.failed.add(case.pair_id)
            result.problems.append(f"{case.pair_id}: result differs from the expected output")
    manifest = json.loads((run_dir / "manifest.json").read_text("utf-8"))
    if sorted(manifest.get("degraded_pairs", [])) != sorted(result.known_fault):
        result.problems.append("manifest degraded_pairs disagree with the result files")
    if sorted(manifest.get("failed_pairs", [])) != sorted(e.get("pair_id") for e in errors):
        result.problems.append("manifest failed_pairs disagree with errors.json")
    return result


# --- evaluate, recounted by brute force -----------------------------------------------


def _scores(preds: list[str], golds: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    f1s, precisions, recalls = [], [], []
    for cls in (corpus.H, corpus.NH):
        tp = sum(1 for p, g in zip(preds, golds) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, golds) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, golds) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        out[f"{cls}.precision"], out[f"{cls}.recall"], out[f"{cls}.f1"] = precision, recall, f1
        precisions.append(precision)
        recalls.append(recall)
        f1s.append(f1)
    out["accuracy"] = sum(1 for p, g in zip(preds, golds) if p == g) / len(preds)
    out["avg_precision"] = sum(precisions) / 2
    out["avg_recall"] = sum(recalls) / 2
    out["macro_f1"] = sum(f1s) / 2
    out["total"] = len(preds)
    return out


def _report_scores(report: Any) -> dict[str, float]:
    out: dict[str, float] = {}
    for cls, scores in ((corpus.H, report.hallucinatory), (corpus.NH, report.non_hallucinatory)):
        out[f"{cls}.precision"] = scores.precision
        out[f"{cls}.recall"] = scores.recall
        out[f"{cls}.f1"] = scores.f1
    for name in ("accuracy", "avg_precision", "avg_recall", "macro_f1", "total"):
        out[name] = getattr(report, name)
    return out


def _any_h(labels: list[str]) -> str:
    return corpus.H if corpus.H in labels else corpus.NH


def expected_scores(cases: Sequence[corpus.PairCase], degraded: set[str]) -> dict[str, Any]:
    """Claim, segment and response scores, and per-category recall, counted
    directly from the generator's gold and predicted labels. Pairs in
    ``degraded`` carry the documented fallback: every claim non-hallucinatory."""
    levels: dict[str, tuple[list[str], list[str]]] = {
        "claim": ([], []), "segment": ([], []), "response": ([], [])}
    unverified = {"claim": 0, "segment": 0, "response": 0}
    tagged: dict[str, int] = {}
    detected: dict[str, int] = {}
    for case in cases:
        golds = [c.gold for c in case.claims]
        preds = ([corpus.NH] * len(golds) if case.pair_id in degraded
                 else [c.pred for c in case.claims])
        levels["claim"][0].extend(preds)
        levels["claim"][1].extend(golds)
        for claim, pred in zip(case.claims, preds):
            if claim.gold == corpus.H:
                tagged[claim.kind] = tagged.get(claim.kind, 0) + 1
                detected[claim.kind] = detected.get(claim.kind, 0) + (pred == corpus.H)
        for group in case.segments or ():
            levels["segment"][0].append(_any_h([preds[i - 1] for i in group]))
            levels["segment"][1].append(_any_h([golds[i - 1] for i in group]))
        levels["response"][0].append(_any_h(preds))
        levels["response"][1].append(_any_h(golds))
        if case.pair_id in degraded:
            unverified["claim"] += len(golds)
            unverified["segment"] += len(case.segments or ())
            unverified["response"] += 1
    return {
        "levels": {level: _scores(p, g) for level, (p, g) in levels.items() if p},
        "unverified": unverified,
        "recall": {kind: detected[kind] / tagged[kind] for kind in tagged},
    }


def check_scores(cases: Sequence[corpus.PairCase], degraded: set[str],
                 reports: Sequence[Any], recall: dict[Any, float]) -> list[str]:
    expected = expected_scores(cases, degraded)
    problems = []
    got_levels = {report.level.value: report for report in reports}
    if set(got_levels) != set(expected["levels"]):
        problems.append(f"evaluate reported levels {sorted(got_levels)}, "
                        f"expected {sorted(expected['levels'])}")
    for level, want in expected["levels"].items():
        report = got_levels.get(level)
        if report is None:
            continue
        got = _report_scores(report)
        for name, value in want.items():
            if abs(got[name] - value) > 1e-12:
                problems.append(f"{level} {name}: evaluate gave {got[name]}, "
                                f"brute force gives {value}")
        if report.unverified_count != expected["unverified"][level]:
            problems.append(f"{level} unverified: {report.unverified_count} != "
                            f"{expected['unverified'][level]}")
    got_recall = {category.value: value for category, value in recall.items()}
    if set(got_recall) != set(expected["recall"]) or any(
            abs(got_recall[k] - v) > 1e-12 for k, v in expected["recall"].items()):
        problems.append(f"per-category recall {got_recall} != {expected['recall']}")
    return problems
