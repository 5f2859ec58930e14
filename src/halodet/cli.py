"""Operator entry points: detect, evaluate, stats, cache.

Exit codes: 0 full success, 1 configuration or usage error or an output
that cannot be written, 2 partial success (some pairs failed but results were
written). Failures also emit a machine-readable JSON line on stderr so batch
drivers can branch without scraping messages.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

from . import bench as bench_io
from .cache import DiskCache
from .config import BACKENDS, RunConfig, build_backends, build_config
from .errors import ConfigInvalid, HalodetError, MissingCategoryTags, MissingDemonstrations
from .executor import load_run_results, run_batch, write_run_dir
from .metrics import (
    MetricLevel,
    MetricsReport,
    per_category_recall,
    render_csv,
    render_json,
    render_table,
    report,
)
from .stages import DetectionMethod

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2


def _fail(exc: BaseException) -> int:
    sys.stderr.write(json.dumps({
        "error": type(exc).__name__,
        "message": str(exc),
    }) + "\n")
    return EXIT_CONFIG


def _default_run_id() -> str:
    return "run-" + datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S-%f")


# --- detect -------------------------------------------------------------------


def cmd_detect(args: argparse.Namespace) -> int:
    # Each flag whose dest names a RunConfig field sets that field.
    names = {f.name for f in fields(RunConfig)}
    flag_values = {name: value for name, value in vars(args).items() if name in names}
    config = build_config(args.config, flag_values)
    if not config.bench:
        raise HalodetError("detect needs --bench")
    pairs = bench_io.load_detection_input(config.bench)
    gateway, tools = build_backends(config)
    demonstrations = ()
    if config.method == "selfcheck2":
        if not config.demos:
            raise MissingDemonstrations("selfcheck2 needs --demos FILE")
        demonstrations = bench_io.load_demos(config.demos)
    cache = DiskCache(config.cache_dir) if config.cache else None
    run_id = config.run_id or _default_run_id()
    run_parent = Path(config.out)
    run_parent.mkdir(parents=True, exist_ok=True)  # a bad --out fails before any call
    if (run_parent / run_id).exists():
        raise HalodetError(f"run directory {run_parent / run_id} already exists")

    outcome = run_batch(
        pairs,
        config.detection_method,
        tools,
        gateway,
        cache=cache,
        width=config.width,
        demonstrations=demonstrations,
    )
    run_dir = write_run_dir(
        config.out, run_id, outcome,
        method=config.detection_method,
        backend_ids={"model": gateway.backend.backend_id, **tools.backend_ids()},
        config_echo=config.echo(),
    )
    print(f"run {run_id}: {len(outcome.results)} pairs ok, "
          f"{len(outcome.failures)} failed -> {run_dir}")
    if outcome.failures:
        for failure in outcome.failures:
            sys.stderr.write(json.dumps(failure.to_json()) + "\n")
        return EXIT_PARTIAL
    return EXIT_OK


# --- evaluate -------------------------------------------------------------------


def _reports(converted: bench_io.ConvertedPredictions) -> list[MetricsReport]:
    """One report per level; the segment level only when some pair has segments."""
    return [report(x.preds, x.golds, level, x.unverified_count) for level in MetricLevel
            if (x := getattr(converted, level.value)).preds or level is not MetricLevel.SEGMENT]


def cmd_evaluate(args: argparse.Namespace) -> int:
    benchmark = bench_io.load(args.bench)
    results = load_run_results(args.results)
    converted = bench_io.convert_predictions(results, benchmark)
    reports = _reports(converted)
    try:
        recall = per_category_recall(
            converted.claim.preds, converted.claim.golds,
            converted.claim_categories,
        )
    except MissingCategoryTags:
        recall = None

    if args.format == "table":
        output = render_table(reports, recall)
    elif args.format == "json":
        output = render_json(reports, recall)
    else:
        output = render_csv(reports)

    if args.out:
        Path(args.out).write_text(output + "\n", "utf-8")
        print(f"wrote {args.out}")
    else:
        print(output)
    return EXIT_OK


# --- stats and cache -------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    benchmark = bench_io.load(args.bench)
    corpus = bench_io.stats(benchmark)
    if args.format == "json":
        print(json.dumps(corpus.to_json(), indent=2))
    else:
        print(corpus.render_text())
    return EXIT_OK


def cmd_cache(args: argparse.Namespace) -> int:
    cache = DiskCache(build_config(flag_values={"cache_dir": args.cache_dir}).cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"cleared {removed} entries")
        return EXIT_OK
    persisted = cache.persisted_stats()
    print(json.dumps({
        "entries": cache.entry_count(),
        "bytes": cache.total_bytes(),
        "hits": persisted["hits"],
        "misses": persisted["misses"],
    }, indent=2))
    return EXIT_OK


# --- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error, so it exits 1 with one JSON line (subparsers share the class)."""

    def error(self, message: str) -> NoReturn:
        raise ConfigInvalid(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="halodet",
        description="Tool-augmented multimodal hallucination detection and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    detect = sub.add_parser("detect", help="run detection over a benchmark file")
    detect.add_argument("--bench", help="benchmark JSON file")
    detect.add_argument("--method", choices=[m.value for m in DetectionMethod],
                        help=f"detection method (default {RunConfig.method})")
    detect.add_argument("--backend", choices=BACKENDS,
                        help=f"model/tool backend kind (default {RunConfig.backend})")
    detect.add_argument("--fixtures", help="mock fixture store (a cache directory)")
    detect.add_argument("--out",
                        help=f"parent directory for run output (default {RunConfig.out})")
    detect.add_argument("--run-id", dest="run_id", help="run directory name")
    detect.add_argument("--width", help=f"parallel pairs (default {RunConfig.width})")
    detect.add_argument("--no-cache", dest="cache", action="store_const", const="false",
                        help="bypass the response cache")
    detect.add_argument("--cache-dir", dest="cache_dir", help="cache directory")
    detect.add_argument("--demos", help="self-check demonstrations JSON file")
    detect.add_argument("--request-log", dest="request_log",
                        help="append each request sent to the model backend, with its "
                             "reply, to this JSONL file (cached replies are not sent)")
    detect.add_argument("--config", help="flat key = value config file")
    detect.set_defaults(func=cmd_detect)

    evaluate = sub.add_parser("evaluate", help="score a run against gold labels")
    evaluate.add_argument("--bench", required=True, help="benchmark JSON file")
    evaluate.add_argument("--results", required=True, help="run directory from detect")
    evaluate.add_argument("--format", choices=["table", "json", "csv"],
                          default="table")
    evaluate.add_argument("--out", help="write the report here instead of stdout")
    evaluate.set_defaults(func=cmd_evaluate)

    stats = sub.add_parser("stats", help="corpus statistics for a benchmark file")
    stats.add_argument("--bench", required=True)
    stats.add_argument("--format", choices=["text", "json"], default="text")
    stats.set_defaults(func=cmd_stats)

    cache = sub.add_parser("cache", help="inspect or clear the response cache")
    cache.add_argument("action", choices=["stat", "clear"])
    cache.add_argument("--cache-dir", dest="cache_dir",
                       help=f"cache directory (default $HALODET_CACHE_DIR, "
                            f"else {RunConfig.cache_dir})")
    cache.set_defaults(func=cmd_cache)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (HalodetError, OSError, ValueError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    raise SystemExit(main())
