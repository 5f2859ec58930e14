"""Self-test of the benchmark's checks: corrupted outputs must be caught.

    python3 benchmarks/selftest.py

For each workload it runs a tiny corpus (without injected latency), checks
that the untouched run directory passes, then corrupts three per-pair files
(a flipped verdict, a dropped evidence item, one changed byte) and checks
that each of those three pairs, and only those, is reported as failed.
Prints one PASS or FAIL line per workload and exits non-zero on any FAIL.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # imports halodet from this checkout's src/
from halodet import bench
from halodet.cache import DiskCache
from halodet.executor import run_batch, write_run_dir
from halodet.gateway import ModelGateway
from halodet.stages import DetectionMethod

import check
import corpus
import fakes

TINY = 8  # positions 0..7 hold one retry pair of each corpus


def _detect(cases, inputs, cache_dir, out, run_id) -> Path:
    backends = fakes.Backends(cases, latency=False)
    pairs = [pair for path in inputs for pair in bench.load_detection_input(path)]
    cache = DiskCache(cache_dir) if cache_dir is not None else None
    outcome = run_batch(pairs, DetectionMethod.UNIHD, backends.tools,
                        ModelGateway(backends.model), cache=cache, width=run.WIDTH)
    return write_run_dir(out, run_id, outcome, method=DetectionMethod.UNIHD,
                         backend_ids=backends.backend_ids())


def _rewrite(path: Path, edit) -> None:
    payload = json.loads(path.read_text("utf-8"))
    edit(payload)
    path.write_bytes(corpus.dumps_payload(payload))


def _flip_verdict(payload: dict) -> None:
    verdict = payload["verdicts"][0]
    verdict["label"] = corpus.NH if verdict["label"] == corpus.H else corpus.H


def _drop_evidence(payload: dict) -> None:
    for family in ("objects", "attributes", "scene_texts", "facts"):
        if payload["evidence"][family]:
            payload["evidence"][family].pop()
            return
    raise AssertionError("pair has no evidence to drop")


def _change_byte(path: Path) -> None:
    data = bytearray(path.read_bytes())
    at = data.index(b'"rationale": "') + len(b'"rationale": "')
    data[at] = ord("Q") if data[at] != ord("Q") else ord("R")
    path.write_bytes(bytes(data))


def selftest(workload: str, work: Path) -> list[str]:
    """Returns the problems found; an empty list means PASS."""
    rounds = run.Run(workload, seed=7, seconds=0, trace=False, work=work)
    make = corpus.open_round if workload == "open-nocache" else corpus.unihd_round
    cases = make(7, 0, "")[:TINY]
    inputs, gold = rounds.write_inputs(cases, "tiny")
    cache_on = workload != "open-nocache"
    cache_dir = work / "cache" if cache_on else None
    reference = None
    if workload == "unihd-warm":
        prep = _detect(cases, inputs, cache_dir, work / "runs", "prep")
        reference = check.check_run_dir(cases, prep, cache_on).files
    run_dir = _detect(cases, inputs, cache_dir, work / "runs", "measured")

    problems = []
    clean = check.check_run_dir(cases, run_dir, cache_on, reference)
    known = {c.pair_id for c in cases if c.retry} if cache_on else set()
    if clean.problems or clean.failed != known:
        problems.append(f"untouched run: failed {sorted(clean.failed)}, "
                        f"problems {clean.problems}")

    victims = [c.pair_id for c in cases if not c.retry][:3]
    _rewrite(run_dir / f"{victims[0]}.json", _flip_verdict)
    _rewrite(run_dir / f"{victims[1]}.json", _drop_evidence)
    _change_byte(run_dir / f"{victims[2]}.json")
    corrupted = check.check_run_dir(cases, run_dir, cache_on, reference)
    if corrupted.failed != known | set(victims):
        problems.append(f"corrupted run: failed {sorted(corrupted.failed)}, "
                        f"expected {sorted(known | set(victims))}")
    flagged = {p.split(":")[0] for p in corrupted.problems}
    if flagged != set(victims):
        problems.append(f"corrupted run: problems name {sorted(flagged)}, "
                        f"expected {sorted(victims)}")
    return problems


def main() -> int:
    status = 0
    for workload in run.WORKLOADS:
        work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.HERE))
        try:
            problems = selftest(workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(f"{workload}: {'FAIL' if problems else 'PASS'}")
        for problem in problems:
            print(f"  {problem}")
        status |= bool(problems)
    return status


if __name__ == "__main__":
    sys.exit(main())
