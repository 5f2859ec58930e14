"""Offline benchmark of halodet's ``detect`` and ``evaluate`` paths.

    python3 benchmarks/run.py --workload unihd-cold --seed 1 --seconds 20 --trace 0

Runs one workload in closed-loop rounds until ``--seconds`` have passed,
checks every output against the generator, and prints as its last line one
JSON object: ``correct``, ``attempted`` and ``failed`` pairs, and the
metrics, each with its unit. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` is the traced run, which reports the per-layer metrics and
writes its spans to ``benchmarks/_out/trace-<workload>-seed<seed>.json``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

WIDTH = 2            # pairs in flight: nproc of the reference machine
WARM_ROUNDS = 10     # the warm corpus is this many annotated rounds, 310 pairs
SETUP_PROBES = 7     # fresh interpreters timed per run for setup_s
MIN_MEASURED = 3     # measured rounds per run, whatever --seconds says
EVAL_MIN_S = 0.15    # evaluate repeats over a round's run directory for at
EVAL_MIN_REPEATS = 3  # least this long and this often; the round keeps the fastest

WORKLOADS = ("unihd-cold", "unihd-warm", "open-nocache")

E2E_UNITS = {
    "pairs_per_s": "1/s",
    "cpu_ms_per_pair": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "eval_pairs_per_s": "1/s",
}

LAYER_UNITS = {
    "executor.threads_started_per_pair": "count",
    "executor.peak_threads": "count",
    "executor.rounds_per_pair": "count",
    "executor.pair_span_ms_p50": "ms",
    "executor.write_run_dir_ms_per_pair": "ms",
    "executor.load_run_results_ms_per_pair": "ms",
    "gateway.model_calls_per_pair": "count",
    "gateway.verify_repeat_calls": "count",
    "gateway.self_us_per_call": "us",
    "gateway.request_digest_us": "us",
    "cache.gets_per_pair": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_us": "us",
    "cache.puts_per_pair": "count",
    "cache.put_us": "us",
    "cache.bytes_per_pair": "bytes",
    "tools.calls_per_pair": "count",
    "tools.busy_ms_per_pair": "ms",
    "tools.distinct_ratio": "ratio",
    "tools.format_evidence_us": "us",
    "prompts.render_us": "us",
    "prompts.first_render_ms": "ms",
    "json_repair.loads_clean_us": "us",
    "json_repair.loads_repaired_us": "us",
    "stages.parse_verdicts_us": "us",
    "stages.repaired_verdicts": "count",
    "stages.unverified_verdicts": "count",
    "bench.load_ms": "ms",
    "bench.convert_predictions_us_per_pair": "us",
    "metrics.report_ms": "ms",
    "halodet.import_ms": "ms",
    "fakes.cpu_ms_per_pair": "ms",
    "trace.overhead_ratio": "ratio",
}

# On unihd-warm the timed pass makes no backend call and no cache write, so
# these come from its traced preparation pass, which does.
WARM_FROM_PREP = ("gateway.self_us_per_call", "cache.put_us",
                  "tools.busy_ms_per_pair", "fakes.cpu_ms_per_pair")


def load_program() -> None:
    """Import halodet from this checkout's src/, or exit without a result."""
    init = SRC / "halodet" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"benchmark: {init} not found; run from a full checkout\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import halodet

    if Path(halodet.__file__).resolve() != init.resolve():
        sys.stderr.write(f"benchmark: imported halodet from {halodet.__file__}, "
                         f"not from {SRC}\n")
        raise SystemExit(2)


load_program()

from halodet import bench  # noqa: E402
from halodet.cache import CacheKey, DiskCache  # noqa: E402
from halodet.errors import HalodetError  # noqa: E402
from halodet.executor import load_run_results, run_batch, write_run_dir  # noqa: E402
from halodet.gateway import ModelGateway, ModelRequest, request_digest  # noqa: E402
from halodet.json_repair import loads_lenient  # noqa: E402
from halodet.metrics import MetricLevel, per_category_recall, report  # noqa: E402
from halodet.model import ImageRef, ParseFlag  # noqa: E402
from halodet.prompts import (  # noqa: E402
    SupplementalId,
    TemplateId,
    render,
    render_claim_list,
    render_object_string,
)
from halodet.stages import DetectionMethod, parse_verdicts  # noqa: E402
from halodet.tools import format_evidence_sections  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
import fakes  # noqa: E402
import spans  # noqa: E402


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool,
                 work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = spans.Tracer() if trace else None
        self.records: list[dict[str, Any]] = []
        self.prep_layers: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.probes: list[dict[str, float]] = []
        self.micro: dict[str, float] = {}
        self.trace_rounds: list[dict[str, Any]] = []

    # --- inputs ---------------------------------------------------------------

    def write_inputs(self, cases: list[corpus.PairCase], tag: str) -> tuple[list[Path], Path]:
        """Write the round's input and gold files; returns (inputs, gold)."""
        folder = self.work / "inputs" / tag
        folder.mkdir(parents=True)
        gold = folder / "bench.json"
        gold.write_text(json.dumps(corpus.bench_json(cases), ensure_ascii=False), "utf-8")
        if all(case.annotated for case in cases):
            return [gold], gold
        # Unannotated pairs reach detect as single-pair files: a benchmark
        # file requires annotated claims.
        inputs = []
        for case in cases:
            path = folder / f"{case.pair_id}.pair.json"
            path.write_text(json.dumps(case.input_json(), ensure_ascii=False), "utf-8")
            inputs.append(path)
        return inputs, gold

    def probe_setup(self, inputs: list[Path], cache_on: bool) -> None:
        """Time set-up in fresh interpreters; keeps every probe's figures."""
        cache_arg = str(self.work / "probe-cache") if cache_on else "-"
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), str(SRC), cache_arg,
                 *map(str, inputs)],
                capture_output=True, text=True, timeout=60, check=True)
            self.probes.append(json.loads(done.stdout.strip().splitlines()[-1]))

    # --- one round ----------------------------------------------------------------

    def round(self, cases: list[corpus.PairCase], inputs: list[Path], gold: Path,
              cache_dir: Path | None, latency: bool, traced: bool, run_id: str,
              reference: dict[str, bytes] | None = None) -> dict[str, Any]:
        tracer = self.tracer if traced else None
        backends = fakes.Backends(cases, latency, tracer)
        cache: DiskCache | None
        if tracer is not None:
            gateway: ModelGateway = spans.TimedGateway(backends.model, tracer)
            cache = spans.TimedCache(cache_dir, tracer) if cache_dir else None
        else:
            gateway = ModelGateway(backends.model)
            cache = DiskCache(cache_dir) if cache_dir else None
        pairs = [pair for path in inputs for pair in bench.load_detection_input(path)]
        bytes_before = cache.total_bytes() if cache is not None else 0
        gc.collect()
        if tracer is not None:
            tracer.reset()
            tracer.install()
        try:
            started = time.perf_counter()
            cpu_started = time.process_time()
            outcome = run_batch(pairs, DetectionMethod.UNIHD, backends.tools, gateway,
                                cache=cache, width=WIDTH)
            batch_done = time.perf_counter()
            run_dir = write_run_dir(self.work / "runs", run_id, outcome,
                                    method=DetectionMethod.UNIHD,
                                    backend_ids=backends.backend_ids())
            detect_done = time.perf_counter()
            cpu_done = time.process_time()
        finally:
            if tracer is not None:
                tracer.uninstall()

        n = len(cases)
        record: dict[str, Any] = {
            "n": n,
            "traced": traced,
            "detect_s": detect_done - started,
            "cpu_s": cpu_done - cpu_started,
            "write_s": detect_done - batch_done,
        }
        results, reports, recall = self.evaluate(gold, run_dir, record)
        outcome_check = check.check_run_dir(cases, run_dir, cache_on=cache is not None,
                                            reference=reference)
        record["check"] = outcome_check
        problems = list(outcome_check.problems)
        if reports is not None:
            problems += check.check_scores(cases, outcome_check.known_fault, reports, recall)
        self.problems += [f"{run_id}: {problem}" for problem in problems]
        if tracer is not None:
            record["layers"] = self.layers(record, tracer, backends, cache, results,
                                           bytes_before)
            self.trace_rounds.append({"run_id": run_id, "spans": tracer.spans})
            if not self.micro:
                self.microbenchmarks(cases, results, cache is None)
        return record

    def evaluate(self, gold: Path, run_dir: Path,
                 record: dict[str, Any]) -> tuple[list, list | None, dict]:
        """The evaluate path, as ``halodet evaluate`` runs it, timed in parts.

        It repeats the same work over the same run directory for at least
        ``EVAL_MIN_S`` seconds and ``EVAL_MIN_REPEATS`` times and keeps the
        fastest repeat: on a shared host, the one least slowed by other load.
        """
        best: dict[str, float] = {}
        repeats = 0
        until = time.perf_counter() + EVAL_MIN_S
        while repeats < EVAL_MIN_REPEATS or time.perf_counter() < until:
            gc.collect()
            try:
                t0 = time.perf_counter()
                benchmark = bench.load(gold)
                t1 = time.perf_counter()
                results = load_run_results(run_dir)
                t2 = time.perf_counter()
                converted = bench.convert_predictions(results, benchmark)
                t3 = time.perf_counter()
                reports = [report(converted.claim.preds, converted.claim.golds,
                                  MetricLevel.CLAIM, converted.claim.unverified_count)]
                if converted.segment.preds:
                    reports.append(report(converted.segment.preds, converted.segment.golds,
                                          MetricLevel.SEGMENT,
                                          converted.segment.unverified_count))
                reports.append(report(converted.response.preds, converted.response.golds,
                                      MetricLevel.RESPONSE, converted.response.unverified_count))
                t4 = time.perf_counter()
                recall = per_category_recall(converted.claim.preds, converted.claim.golds,
                                             converted.claim_categories)
                t5 = time.perf_counter()
            except HalodetError as exc:
                self.problems.append(f"evaluate failed: {type(exc).__name__}: {exc}")
                return [], None, {}
            repeats += 1
            if t5 - t0 < best.get("eval_s", float("inf")):
                best = {"eval_s": t5 - t0, "bench_load_s": t1 - t0, "load_results_s": t2 - t1,
                        "convert_s": t3 - t2, "report_s": t4 - t3}
        record.update(best)
        return results, reports, recall

    # --- per-layer figures -----------------------------------------------------

    def layers(self, record: dict[str, Any], tracer: spans.Tracer,
               backends: fakes.Backends, cache: Any, results: list,
               bytes_before: int) -> dict[str, float]:
        n = record["n"]
        figures = spans.span_figures(tracer.spans)
        durations = figures["durations"]
        tool_calls = sum(fake.calls for fake in backends.tool_fakes)
        tool_requests = [(fake.family, r) for fake in backends.tool_fakes for r in fake.requests]
        tool_busy_ns = sum(sum(durations.get(f"backend.{fake.family}", ()))
                           for fake in backends.tool_fakes)
        verdicts = [v for result in results for v in result.verdicts]
        gets = cache.gets if cache is not None else 0
        return {
            "executor.threads_started_per_pair": tracer.threads_started / n,
            "executor.peak_threads": tracer.peak_threads,
            "executor.rounds_per_pair": sum(figures["waves"]) / n,
            "executor.pair_span_ms_p50": _median(figures["pair_span_ns"]) / 1e6,
            "executor.write_run_dir_ms_per_pair": record["write_s"] * 1e3 / n,
            "executor.load_run_results_ms_per_pair": record.get("load_results_s", 0) * 1e3 / n,
            "gateway.model_calls_per_pair": backends.model.calls / n,
            "gateway.verify_repeat_calls": backends.model.verify_repeats,
            "gateway.self_us_per_call": _median(figures["gateway_self_ns"]) / 1e3,
            "cache.gets_per_pair": gets / n,
            "cache.hit_ratio": cache.get_hits / gets if gets else 0.0,
            "cache.get_us": _median(durations.get("cache.get", ())) / 1e3,
            "cache.puts_per_pair": (cache.puts if cache is not None else 0) / n,
            "cache.put_us": _median(durations.get("cache.put", ())) / 1e3,
            "cache.bytes_per_pair": ((cache.total_bytes() - bytes_before) / n
                                     if cache is not None else 0.0),
            "tools.calls_per_pair": tool_calls / n,
            "tools.busy_ms_per_pair": tool_busy_ns / 1e6 / n,
            "tools.distinct_ratio": (len(set(tool_requests)) / tool_calls
                                     if tool_calls else 0.0),
            "fakes.cpu_ms_per_pair": backends.cpu_s() * 1e3 / n,
            "stages.repaired_verdicts": sum(ParseFlag.REPAIRED in v.parse_flags for v in verdicts),
            "stages.unverified_verdicts": sum(ParseFlag.UNVERIFIED in v.parse_flags
                                              for v in verdicts),
            "bench.load_ms": record.get("bench_load_s", 0) * 1e3,
            "bench.convert_predictions_us_per_pair": record.get("convert_s", 0) * 1e6 / n,
            "metrics.report_ms": record.get("report_s", 0) * 1e3,
        }

    def microbenchmarks(self, cases: list[corpus.PairCase], results: list,
                        cache_off: bool) -> None:
        """Time public functions on this round's own inputs and outputs."""
        by_id = {result.pair_id: result for result in results}
        renders = []
        for case in cases:
            result = by_id.get(case.pair_id)
            if result is None or result.plan is None:
                continue
            claims = render_claim_list([c.text for c in case.claims])
            union: dict[str, None] = {}
            for queries in result.plan.per_claim:
                for label in queries.object_labels:
                    union.setdefault(label)
            image = ImageRef(path=case.image.path, digest=case.image.digest)
            verify = (TemplateId.VERIFY_TEXT_TO_IMAGE if case.task == "text-to-image"
                      else TemplateId.VERIFY_IMAGE_TO_TEXT)
            bindings = dict(format_evidence_sections(result.evidence), claims=claims)
            renders += [
                (TemplateId.OBJECT_QUERY, {"claims": claims}, ()),
                (TemplateId.SCENE_TEXT_QUERY, {"claims": claims}, ()),
                (TemplateId.FACT_QUERY, {"claims": claims}, ()),
                (TemplateId.ATTRIBUTE_QUERY,
                 {"objects": render_object_string(union), "claims": claims}, ()),
                (verify, bindings, (image,)),
            ]
            if not case.annotated:
                renders.append((SupplementalId.EXTRACT_CLAIMS, {"text": case.text}, ()))
        requests = [(ModelRequest(prompt=render(*args)),) for args in renders]
        clean, repaired = [], []
        for case in cases:
            for text in case.replies.values():
                (repaired if loads_lenient(text)[1] else clean).append((text,))
        micro = {
            "prompts.render_us": spans.time_calls(render, renders),
            "gateway.request_digest_us": spans.time_calls(request_digest, requests),
            "json_repair.loads_clean_us": spans.time_calls(loads_lenient, clean),
            "json_repair.loads_repaired_us": spans.time_calls(loads_lenient, repaired),
            "stages.parse_verdicts_us": spans.time_calls(
                parse_verdicts, [(c.replies["verify"], len(c.claims)) for c in cases]),
            "tools.format_evidence_us": spans.time_calls(
                format_evidence_sections, [(r.evidence,) for r in results]),
        }
        if cache_off:
            # The workload runs without a cache: time put and get of this
            # round's own tool results in a scratch cache instead.
            scratch = DiskCache(self.work / "scratch-cache")
            images = {case.pair_id: case.image.digest for case in cases}
            items = [
                (CacheKey(item.to_json()["kind"], item.question, images[result.pair_id],
                          "bench"), item.to_json())
                for result in results
                for item in result.evidence.attributes + result.evidence.facts
            ]
            micro["cache.put_us"] = spans.time_calls(scratch.put, items, repeats=1)
            micro["cache.get_us"] = spans.time_calls(scratch.get, [(k,) for k, _ in items])
        self.micro = {name: _median(ns) / 1e3 for name, ns in micro.items()}

    # --- workloads ----------------------------------------------------------------

    def book(self, record: dict[str, Any], measured: bool) -> None:
        self.attempted += record["n"]
        self.failed += len(record["check"].failed)
        record["check"].files = {}
        record["measured"] = measured
        self.records.append(record)

    def enough(self, deadline: float) -> bool:
        if time.monotonic() < deadline:
            return False
        measured = [r for r in self.records if r["measured"]]
        if self.trace:
            traced = sum(r["traced"] for r in measured)
            return traced >= 2 and len(measured) - traced >= 2
        return len(measured) >= MIN_MEASURED

    def run_rounds(self) -> None:
        annotated = self.workload == "unihd-cold"
        make = corpus.unihd_round if annotated else corpus.open_round
        cases = make(self.seed, 0, "")
        inputs, gold = self.write_inputs(cases, "r0")
        self.probe_setup(inputs, cache_on=annotated)
        deadline = time.monotonic() + self.seconds
        index = 0
        while True:
            if index:
                cases = make(self.seed, index, "")
                inputs, gold = self.write_inputs(cases, f"r{index}")
            cache_dir = self.work / f"cache-r{index}" if annotated else None
            # Round 0 finishes lazy start-up and is not measured; after it,
            # a traced run alternates untraced and traced rounds.
            traced = self.trace and index % 2 == 0 and index > 0
            record = self.round(cases, inputs, gold, cache_dir, latency=True,
                                traced=traced, run_id=f"r{index}")
            self.book(record, measured=index > 0)
            index += 1
            if self.enough(deadline):
                break

    def run_warm(self) -> None:
        cases = [case for index in range(WARM_ROUNDS)
                 for case in corpus.unihd_round(self.seed, index, "")]
        inputs, gold = self.write_inputs(cases, "warm")
        cache_dir = self.work / "cache-warm"
        self.probe_setup(inputs, cache_on=True)
        # Preparation: one pass without latency fills the cache. It is
        # checked like a cold round, and its per-pair files are the
        # reference every timed pass must reproduce byte for byte.
        prep = self.round(cases, inputs, gold, cache_dir, latency=False,
                          traced=self.trace, run_id="prep")
        if prep["check"].problems:
            self.problems.append("warm preparation pass produced wrong output")
        reference = prep["check"].files
        self.prep_layers = prep.get("layers", {})
        deadline = time.monotonic() + self.seconds
        index = 0
        while True:
            traced = self.trace and index % 2 == 0 and index > 0
            record = self.round(cases, inputs, gold, cache_dir, latency=True,
                                traced=traced, run_id=f"pass{index}", reference=reference)
            self.book(record, measured=index > 0)
            index += 1
            if self.enough(deadline):
                break

    def execute(self) -> None:
        if self.workload == "unihd-warm":
            self.run_warm()
        else:
            self.run_rounds()

    # --- results --------------------------------------------------------------------

    def metrics(self) -> dict[str, dict[str, Any]]:
        measured = [r for r in self.records if r["measured"]]
        plain = [r for r in measured if not r["traced"]]
        if not self.trace:
            values = {
                "pairs_per_s": _median([r["n"] / r["detect_s"] for r in plain]),
                "cpu_ms_per_pair": _median([r["cpu_s"] * 1e3 / r["n"] for r in plain]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": _median([p["setup_s"] for p in self.probes]),
                # Evaluate is short, single-threaded, identical work: the run
                # keeps its fastest repeat, the one least slowed by other load.
                "eval_pairs_per_s": max([r["n"] / r["eval_s"] for r in plain
                                         if "eval_s" in r], default=0.0),
            }
            return {name: {"value": values[name], "unit": unit}
                    for name, unit in E2E_UNITS.items()}
        traced = [r for r in measured if r["traced"]]
        values = {name: _median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        values["executor.peak_threads"] = max(r["layers"]["executor.peak_threads"]
                                              for r in traced)
        values.update(self.micro)
        if self.workload == "unihd-warm":
            values.update({name: self.prep_layers[name] for name in WARM_FROM_PREP})
        values["prompts.first_render_ms"] = _median([p["render_s"] for p in self.probes]) * 1e3
        values["halodet.import_ms"] = _median([p["import_s"] for p in self.probes]) * 1e3
        values["trace.overhead_ratio"] = (_median([r["detect_s"] for r in traced])
                                          / _median([r["detect_s"] for r in plain]))
        return {name: {"value": values[name], "unit": unit}
                for name, unit in LAYER_UNITS.items()}

    def write_trace(self, metrics: dict[str, Any]) -> Path:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{self.workload}-seed{self.seed}.json"
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent_id", "pair_id"],
            "rounds": self.trace_rounds,
            "metrics": metrics,
        }
        path.write_text(json.dumps(payload), "utf-8")
        return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Run directories, caches and inputs are kept: on a file system mounted
    # with online discard, deleting them slows the file creation of later
    # rounds and runs (see README.md). Remove benchmarks/_out/ by hand.
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    run.execute()
    metrics = run.metrics()
    for problem in run.problems[:20]:
        sys.stderr.write(f"check: {problem}\n")
    for name, metric in metrics.items():
        sys.stderr.write(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}\n")
    if args.trace:
        path = run.write_trace(metrics)
        sys.stderr.write(f"trace written to {path.relative_to(ROOT)}; trace.overhead_ratio = "
                         f"{metrics['trace.overhead_ratio']['value']:.4f}\n")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
