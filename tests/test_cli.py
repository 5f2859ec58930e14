"""CLI contract: commands, exit codes, machine-readable errors, determinism."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import socket
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import pytest

import e2e_scenario
import store_records
from halodet.cache import CacheKey, DiskCache
from halodet.cli import main
from halodet.config import TOOL_SWITCHES
from halodet.tools import REPLAY_IDS

FIXTURES = Path(__file__).parent / "fixtures"
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("scenario")
    e2e_scenario.materialize_fixtures(root / "mock")
    return root


def _detect_args(scenario_dir: Path, out: Path, run_id: str, *extra: str) -> list[str]:
    return [
        "detect",
        "--bench", str(FIXTURES / "bench6.json"),
        "--backend", "mock",
        "--fixtures", str(scenario_dir / "mock"),
        "--out", str(out),
        "--run-id", run_id,
        "--cache-dir", str(out / "cache"),
        *extra,
    ]


def _demos_with(path: tuple, value) -> list[dict]:
    """The scenario's demos file with one edit; a path ending in "-" appends."""
    demos = e2e_scenario.demos_json()
    *parents, last = path
    node = demos
    for key in parents:
        node = node[key]
    if last == "-":
        node.append(value)
    else:
        node[last] = value
    return demos


class TestDetect:
    def test_full_mock_run_exits_zero(self, scenario_dir, tmp_path, capsys):
        code = main(_detect_args(scenario_dir, tmp_path, "r1"))
        assert code == 0
        out = capsys.readouterr().out
        assert "6 pairs ok, 0 failed" in out
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert "manifest.json" in names and "errors.json" in names
        assert sum(1 for n in names if n not in ("manifest.json", "errors.json")) == 6

    def test_a_malformed_stats_file_keeps_a_finished_run(self, scenario_dir, tmp_path,
                                                         capsys):
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / "stats.log").write_text('{"hits": 1e999}\n')
        assert main(_detect_args(scenario_dir, tmp_path, "r1")) == 0
        assert "6 pairs ok, 0 failed" in capsys.readouterr().out
        assert len(list((tmp_path / "r1").glob("*.json"))) == 8
        stats = DiskCache(tmp_path / "cache").persisted_stats()
        assert stats["hits"] + stats["misses"] > 0

    def test_a_mock_run_opens_its_fixture_store_once(self, scenario_dir, tmp_path,
                                                    monkeypatch):
        opened = []
        init = DiskCache.__init__

        def counting_init(self, directory):
            opened.append(Path(directory))
            init(self, directory)

        monkeypatch.setattr(DiskCache, "__init__", counting_init)
        assert main(_detect_args(scenario_dir, tmp_path, "r1")) == 0
        assert opened == [scenario_dir / "mock", tmp_path / "cache"]

    def test_missing_bench_is_config_error(self, scenario_dir, tmp_path, capsys):
        code = main([
            "detect", "--backend", "mock",
            "--fixtures", str(scenario_dir / "mock"),
            "--out", str(tmp_path), "--run-id", "x",
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().err.splitlines()[0])
        assert "bench" in error["message"]

    def test_a_config_value_of_the_wrong_type_is_one_json_error(self, scenario_dir,
                                                                tmp_path, capsys):
        config_file = tmp_path / "run.cfg"
        config_file.write_text("width = 2.5\n")
        code = main(_detect_args(scenario_dir, tmp_path, "x", "--config", str(config_file)))
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ConfigInvalid",
                                    "message": f"{config_file}: width must be int, got 2.5"}
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("width", ["\u0663", "1_0"], ids=["arabic-indic-digit", "underscore"])
    def test_an_integer_flag_is_ascii_digits(self, scenario_dir, tmp_path, capsys, width):
        assert main(_detect_args(scenario_dir, tmp_path, "r1", "--width", width)) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ConfigInvalid",
                                    "message": f"--width must be int, got {width!r}"}
        assert not (tmp_path / "r1").exists()

    def test_selfcheck2_without_demos(self, scenario_dir, tmp_path, capsys):
        code = main(_detect_args(scenario_dir, tmp_path, "x",
                                 "--method", "selfcheck2"))
        assert code == 1
        error = json.loads(capsys.readouterr().err.splitlines()[0])
        assert error["error"] == "MissingDemonstrations"

    def test_single_pair_input_without_gold_labels(self, scenario_dir, tmp_path):
        bench = json.loads((FIXTURES / "bench6.json").read_text())
        pair = bench["pairs"][1]  # the athlete pair
        for claim in pair["claims"]:
            claim.pop("gold_label", None)
            claim.pop("gold_categories", None)
        single = tmp_path / "single-pair.json"
        single.write_text(json.dumps(pair))
        code = main([
            "detect", "--bench", str(single),
            "--backend", "mock", "--fixtures", str(scenario_dir / "mock"),
            "--out", str(tmp_path), "--run-id", "single",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 0
        payload = json.loads((tmp_path / "single" / "i2t-athlete.json").read_text())
        assert payload["verdicts"][0]["label"] == "hallucinatory"

    def test_single_pair_id_cannot_name_a_path(self, scenario_dir, tmp_path, capsys):
        pair = json.loads((FIXTURES / "bench6.json").read_text())["pairs"][1]
        pair["id"] = "../escaped"
        single = tmp_path / "single-pair.json"
        single.write_text(json.dumps(pair))
        code = main([
            "detect", "--bench", str(single),
            "--backend", "mock", "--fixtures", str(scenario_dir / "mock"),
            "--out", str(tmp_path / "res"), "--run-id", "single",
            "--cache-dir", str(tmp_path / "cache"),
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().err.splitlines()[0])
        assert error["error"] == "SchemaViolation"
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("reserved", ["errors", "manifest"])
    def test_pair_id_cannot_name_a_run_file(self, scenario_dir, tmp_path, capsys,
                                            reserved):
        bench = json.loads((FIXTURES / "bench6.json").read_text())
        bench["pairs"][1]["id"] = reserved
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(bench))
        args = _detect_args(scenario_dir, tmp_path, "r")
        args[args.index("--bench") + 1] = str(path)
        assert main(args) == 1
        error = json.loads(capsys.readouterr().err.splitlines()[0])
        assert error["error"] == "SchemaViolation"
        assert "/pairs/1/id" in error["message"]
        assert not (tmp_path / "r").exists()

    def test_selfcheck2_with_demos(self, scenario_dir, tmp_path, capsys):
        code = main(_detect_args(
            scenario_dir, tmp_path, "sc2", "--method", "selfcheck2",
            "--demos", str(FIXTURES / "demos.json")))
        assert code == 0

    @pytest.mark.parametrize("demos, pointer", [
        ([{}], "/"),
        (e2e_scenario.demos_json()[:1], "/"),
        ([{}, e2e_scenario.demos_json()[1]], "/0/image"),
        (_demos_with((0, "claims", 0), None), "/0/claims/0"),
        (_demos_with((1, "verdicts", 0, "reason"), None), "/1/verdicts/0/reason"),
        (_demos_with((0, "verdicts", 1, "label"), "sorta"), "/0/verdicts/1/label"),
        (_demos_with((0, "claims", "-"), "The dog sits."), "/0/verdicts"),
    ], ids=["one-empty-entry", "one-entry", "entry-empty", "claim-null", "reason-null",
            "label-unknown", "claims-outnumber-verdicts"])
    def test_bad_demos_file_is_config_error(self, scenario_dir, tmp_path, capsys,
                                            demos, pointer):
        path = tmp_path / "demos.json"
        path.write_text(json.dumps(demos))
        code = main(_detect_args(scenario_dir, tmp_path / "res", "sc2",
                                 "--method", "selfcheck2", "--demos", str(path)))
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "SchemaViolation"
        assert error["message"].startswith(f"{path}: {pointer}: ")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("bad", ["bench", "demos"])
    def test_a_schema_violation_names_the_file_at_fault(self, scenario_dir, tmp_path, capsys,
                                                        bad):
        bench = json.loads((FIXTURES / "bench6.json").read_text())
        demos = e2e_scenario.demos_json()
        if bad == "bench":
            bench["pairs"][0]["image"]["digest"] = "0" * 63
        else:
            demos[0]["image"]["digest"] = "0" * 63
        files = {"bench": tmp_path / "b.json", "demos": tmp_path / "d.json"}
        files["bench"].write_text(json.dumps(bench))
        files["demos"].write_text(json.dumps(demos))
        args = _detect_args(scenario_dir, tmp_path, "sc2", "--method", "selfcheck2",
                            "--demos", str(files["demos"]))
        args[args.index("--bench") + 1] = str(files["bench"])
        assert main(args) == 1
        [line] = capsys.readouterr().err.splitlines()
        pointer = "/pairs/0/image/digest" if bad == "bench" else "/0/image/digest"
        assert json.loads(line) == {
            "error": "SchemaViolation",
            "message": f"{files[bad]}: {pointer}: expected a 64-hex sha256 digest"}
        assert not (tmp_path / "sc2").exists()

    def test_a_run_without_a_run_id_is_named_by_its_utc_start(self, scenario_dir, tmp_path,
                                                              capsys):
        args = _detect_args(scenario_dir, tmp_path, "unused")
        del args[args.index("--run-id"):args.index("--run-id") + 2]
        before = datetime.now(timezone.utc).replace(tzinfo=None)
        assert main(args) == 0
        [run_dir] = [path for path in tmp_path.iterdir() if path.name != "cache"]
        started = datetime.strptime(run_dir.name, "run-%Y%m%d-%H%M%S-%f")
        assert before <= started <= datetime.now(timezone.utc).replace(tzinfo=None)
        assert (run_dir / "manifest.json").exists()

    def test_duplicate_run_id_rejected(self, scenario_dir, tmp_path, capsys):
        assert main(_detect_args(scenario_dir, tmp_path, "dup")) == 0
        code = main(_detect_args(scenario_dir, tmp_path, "dup"))
        assert code == 1
        error = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert "already exists" in error["message"]

    @pytest.mark.parametrize("run_id", ["../escaped", "..", ".", "a/b", "/absolute"])
    def test_run_id_must_name_a_directory_under_out(self, scenario_dir, tmp_path, capsys,
                                                    run_id):
        if run_id == "/absolute":
            run_id = str(tmp_path / "absolute")
        code = main(_detect_args(scenario_dir, tmp_path / "out", run_id))
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "ConfigInvalid"
        assert list(tmp_path.iterdir()) == []

    def test_a_file_as_out_fails_before_any_call(self, scenario_dir, tmp_path, capsys):
        out = tmp_path / "not-a-directory"
        out.write_text("")
        args = _detect_args(scenario_dir, out, "r1")
        args[args.index("--cache-dir") + 1] = str(tmp_path / "cache")
        assert main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "FileExistsError"
        assert not (tmp_path / "cache").exists()  # no reply was put, so no call made

    @pytest.mark.parametrize("endpoint", ["model.example/v1", "http://:34887/v1"],
                             ids=["no-scheme", "no-host"])
    def test_a_live_endpoint_the_clients_cannot_speak_fails_before_any_pair(
            self, tmp_path, capsys, monkeypatch, endpoint):
        def refuse(*args):
            raise AssertionError("a pair ran")

        monkeypatch.setattr(socket.socket, "connect", refuse)
        for key, value in (("MODEL_API_KEY", "k"), ("SEARCH_API_KEY", "s"),
                           ("MODEL_ENDPOINT", endpoint),
                           ("DETECTOR_ENDPOINT", "https://det.example"),
                           ("OCR_ENDPOINT", "https://ocr.example")):
            monkeypatch.setenv(f"HALODET_{key}", value)
        assert main(["detect", "--bench", str(FIXTURES / "bench6.json"), "--backend", "live",
                     "--out", str(tmp_path / "out"), "--run-id", "r1",
                     "--cache-dir", str(tmp_path / "cache")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {
            "error": "ValueError",
            "message": f"endpoint {endpoint!r} is not an http or https URL with a host"}
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "cache").exists()

    def test_no_cache_matches_cached_run(self, scenario_dir, tmp_path):
        assert main(_detect_args(scenario_dir, tmp_path, "cached")) == 0
        assert main(_detect_args(scenario_dir, tmp_path, "plain", "--no-cache")) == 0
        for name in ("i2t-beach.json", "t2i-car.json", "t2i-eiffel.json"):
            cached = (tmp_path / "cached" / name).read_bytes()
            plain = (tmp_path / "plain" / name).read_bytes()
            assert cached == plain

    def test_partial_failure_exit_code(self, scenario_dir, tmp_path, capsys):
        # Remove one pair's verify fixture: that pair degrades (unverified)
        # but still succeeds; removing its formulation fixtures forces a
        # real failure.
        import shutil

        broken = tmp_path / "broken-fixtures"
        shutil.copytree(scenario_dir / "mock", broken)
        [huawei] = [s for s in e2e_scenario.build_scripts() if s.pair.id == "i2t-huawei"]
        replies = {huawei.object_reply, huawei.attribute_reply, huawei.scene_reply,
                   huawei.fact_reply}

        def formulation(record):
            entry = record.json()
            return entry["key"]["tool_kind"] == "model" and entry["value"]["text"] in replies

        assert store_records.drop(broken, formulation) == 4
        code = main([
            "detect", "--bench", str(FIXTURES / "bench6.json"),
            "--backend", "mock", "--fixtures", str(broken),
            "--out", str(tmp_path), "--run-id", "partial",
            "--cache-dir", str(tmp_path / "cache2"), "--no-cache",
        ])
        assert code == 2
        err_lines = capsys.readouterr().err.splitlines()
        errors = [json.loads(line) for line in err_lines]
        assert any(e.get("pair_id") == "i2t-huawei" for e in errors)
        written = json.loads((tmp_path / "partial" / "errors.json").read_text())
        assert [e["pair_id"] for e in written] == ["i2t-huawei"]
        assert (tmp_path / "partial" / "i2t-beach.json").exists()

    def test_a_failed_pair_writes_only_json_lines_to_stderr(self, scenario_dir, tmp_path):
        # Outside pytest no log capture hides a plain-text line.
        broken = tmp_path / "broken-fixtures"
        shutil.copytree(scenario_dir / "mock", broken)
        [huawei] = [s for s in e2e_scenario.build_scripts() if s.pair.id == "i2t-huawei"]
        replies = {huawei.object_reply, huawei.attribute_reply, huawei.scene_reply,
                   huawei.fact_reply}

        def formulation(record):
            entry = record.json()
            return entry["key"]["tool_kind"] == "model" and entry["value"]["text"] in replies

        assert store_records.drop(broken, formulation) == 4
        proc = subprocess.run([
            sys.executable, "-m", "halodet.cli", "detect",
            "--bench", str(FIXTURES / "bench6.json"),
            "--backend", "mock", "--fixtures", str(broken),
            "--out", str(tmp_path), "--run-id", "partial", "--no-cache",
        ], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.stderr
        errors = [json.loads(line) for line in proc.stderr.splitlines()]
        assert [e["pair_id"] for e in errors] == ["i2t-huawei"]


class TestFixtureStore:
    def test_one_entry_per_distinct_backend_call(self, scenario_dir, capsys):
        assert main(["cache", "stat", "--cache-dir", str(scenario_dir / "mock")]) == 0
        stat = json.loads(capsys.readouterr().out)
        # Recording missed once per distinct call and wrote one entry for each:
        # 57 for the three methods, then per switched-off tool its verification
        # prompts (13) and the null tool's empty results (15). The ablation
        # passes read every other call back.
        assert stat["entries"] == stat["misses"] == 57 + 13 + 15
        assert stat["hits"] == 152

    @pytest.mark.parametrize("switch", list(TOOL_SWITCHES))
    def test_it_replays_each_tool_ablation(self, scenario_dir, tmp_path, capsys,
                                           monkeypatch, switch):
        monkeypatch.setenv(f"HALODET_{switch.upper()}", "null")
        assert main(_detect_args(scenario_dir, tmp_path, "ablation", "--no-cache")) == 0
        assert "6 pairs ok, 0 failed" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "ablation" / "manifest.json").read_text())
        assert manifest["backend_ids"][TOOL_SWITCHES[switch]] == "null"
        assert main(["evaluate", "--bench", str(FIXTURES / "bench6.json"),
                     "--results", str(tmp_path / "ablation")]) == 0

    def test_tampered_tool_entry_fails_its_pair(self, scenario_dir, tmp_path, capsys):
        import shutil

        store_dir = tmp_path / "tampered-fixtures"
        shutil.copytree(scenario_dir / "mock", store_dir)
        car = e2e_scenario.image("car")
        key = CacheKey.scene_text(car.digest, REPLAY_IDS["scene_text_reader"])
        assert DiskCache(store_dir).get(key)[0]
        [entry] = [r for r in store_records.records(store_dir) if r.digest == key.digest()]
        store_records.rewrite(entry, entry.body.decode().replace("worlld", "world"))
        code = main([
            "detect", "--bench", str(FIXTURES / "bench6.json"),
            "--backend", "mock", "--fixtures", str(store_dir),
            "--out", str(tmp_path), "--run-id", "tampered", "--no-cache",
        ])
        assert code == 2
        capsys.readouterr()
        written = json.loads((tmp_path / "tampered" / "errors.json").read_text())
        assert [(e["pair_id"], e["error_type"]) for e in written] == \
            [("t2i-car", "StoreCorrupt")]
        assert not (tmp_path / "tampered" / "t2i-car.json").exists()


@pytest.fixture(scope="module")
def run_dir(scenario_dir, tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("runs")
    assert main(_detect_args(scenario_dir, out, "eval-run")) == 0
    return out / "eval-run"


def _untagged_bench(tmp_path: Path) -> Path:
    """The six-pair bench with every claim's category tags removed."""
    bench = json.loads((FIXTURES / "bench6.json").read_text())
    for pair in bench["pairs"]:
        for claim in pair["claims"]:
            claim.pop("gold_categories", None)
    untagged = tmp_path / "untagged.json"
    untagged.write_text(json.dumps(bench))
    return untagged


_SCORE_TABLE = """\
Level        H-P     H-R    H-F1    NH-P    NH-R   NH-F1    Acc.   Avg.P   Avg.R  Mac.F1
----------------------------------------------------------------------------------------
claim     100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00
segment   100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00
response  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00  100.00
"""

_RECALL_BLOCK = """\
per-category recall (hallucinatory claims):
  attribute: 100.00
  fact: 100.00
  object: 100.00
  scene-text: 100.00
"""

_JSON_RECALL = """\
  "category_recall": {
    "attribute": 100.0,
    "fact": 100.0,
    "object": 100.0,
    "scene-text": 100.0
  },
"""


def _json_report(level: str, total: int) -> str:
    return f"""\
    {{
      "accuracy": 100.0,
      "avg_precision": 100.0,
      "avg_recall": 100.0,
      "hallucinatory": {{
        "f1": 100.0,
        "precision": 100.0,
        "recall": 100.0
      }},
      "level": "{level}",
      "macro_f1": 100.0,
      "non_hallucinatory": {{
        "f1": 100.0,
        "precision": 100.0,
        "recall": 100.0
      }},
      "total": {total},
      "unverified_count": 0,
      "zero_division": "0/0 -> 0"
    }}"""


_JSON_REPORTS = ('  "reports": [\n'
                 + ",\n".join(_json_report(level, total) for level, total in
                              (("claim", 15), ("segment", 10), ("response", 6)))
                 + "\n  ]\n}\n")

_CSV = """\
level,h_precision,h_recall,h_f1,nh_precision,nh_recall,nh_f1,accuracy,avg_precision,avg_recall,macro_f1,total,unverified_count
claim,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,15,0
segment,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,10,0
response,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,100.00,6,0

"""

# The exact stdout of evaluate over the six-pair run, per bench and format.
_EVALUATE_STDOUT = {
    ("tagged", "table"): _SCORE_TABLE + _RECALL_BLOCK,
    ("tagged", "json"): "{\n" + _JSON_RECALL + _JSON_REPORTS,
    ("tagged", "csv"): _CSV,
    ("untagged", "table"): _SCORE_TABLE,
    ("untagged", "json"): "{\n" + _JSON_REPORTS,
}


class TestEvaluate:

    @pytest.mark.parametrize("bench, fmt", sorted(_EVALUATE_STDOUT))
    def test_stdout_is_pinned(self, run_dir, tmp_path, capsys, bench, fmt):
        path = FIXTURES / "bench6.json" if bench == "tagged" else _untagged_bench(tmp_path)
        assert main(["evaluate", "--bench", str(path), "--results", str(run_dir),
                     "--format", fmt]) == 0
        assert capsys.readouterr().out == _EVALUATE_STDOUT[bench, fmt]

    def test_table_output_all_perfect(self, run_dir, capsys):
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(run_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mac.F1" in out
        assert "100.00" in out
        assert "per-category recall" in out

    def test_json_output(self, run_dir, capsys):
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(run_dir), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        levels = [rep["level"] for rep in payload["reports"]]
        assert levels == ["claim", "segment", "response"]
        assert payload["reports"][0]["macro_f1"] == 100.0
        assert payload["category_recall"] == {
            "attribute": 100.0, "fact": 100.0, "object": 100.0, "scene-text": 100.0,
        }

    def test_csv_output_to_file(self, run_dir, tmp_path, capsys):
        target = tmp_path / "report.csv"
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(run_dir), "--format", "csv", "--out", str(target),
        ])
        assert code == 0
        assert target.read_text().startswith("level,h_precision")

    def test_a_benchmark_without_category_tags_has_no_recall_section(self, run_dir,
                                                                     tmp_path, capsys):
        bench = json.loads((FIXTURES / "bench6.json").read_text())
        for pair in bench["pairs"]:
            for claim in pair["claims"]:
                claim.pop("gold_categories", None)
        untagged = tmp_path / "untagged.json"
        untagged.write_text(json.dumps(bench))
        code = main(["evaluate", "--bench", str(untagged), "--results", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Mac.F1" in out
        assert "per-category recall" not in out

    def test_misaligned_results_exit_one(self, run_dir, tmp_path, capsys):
        import shutil

        clipped = tmp_path / "clipped"
        shutil.copytree(run_dir, clipped)
        (clipped / "i2t-beach.json").unlink()
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(clipped),
        ])
        assert code == 1
        error = json.loads(capsys.readouterr().err.splitlines()[0])
        assert error["error"] == "MissingPrediction"

    def test_a_directory_as_out_is_a_one_line_error(self, run_dir, tmp_path, capsys):
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(run_dir), "--out", str(tmp_path),
        ])
        assert code == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"] == "IsADirectoryError"

    @staticmethod
    def _evaluate_edited(run_dir, tmp_path, capsys, name, edit) -> dict:
        """Evaluate a copy of the run whose ``name`` holds ``edit`` of i2t-beach.json."""
        import shutil

        edited = tmp_path / "edited"
        shutil.copytree(run_dir, edited)
        payload = json.loads((edited / "i2t-beach.json").read_text())
        edit(payload)
        (edited / name).write_text(json.dumps(payload))
        code = main([
            "evaluate", "--bench", str(FIXTURES / "bench6.json"),
            "--results", str(edited),
        ])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        return json.loads(line)

    @pytest.mark.parametrize("edit", [
        lambda payload: payload.pop("verdicts"),
        lambda payload: payload.update(verdicts=None),
    ], ids=["verdicts-missing", "verdicts-null"])
    def test_an_undecodable_result_file_is_a_one_line_error(self, run_dir, tmp_path,
                                                            capsys, edit):
        error = self._evaluate_edited(run_dir, tmp_path, capsys, "i2t-beach.json", edit)
        assert error == {
            "error": "ResultFileInvalid",
            "message": f"{tmp_path / 'edited' / 'i2t-beach.json'}: /verdicts: expected a list",
        }

    def test_a_result_file_naming_another_pair_is_rejected(self, run_dir, tmp_path,
                                                           capsys):
        def flip_first_verdict(payload):
            verdict = payload["verdicts"][0]
            verdict["label"] = ("non-hallucinatory" if verdict["label"] == "hallucinatory"
                                else "hallucinatory")

        error = self._evaluate_edited(run_dir, tmp_path, capsys, "zz-extra.json",
                                      flip_first_verdict)
        assert error == {
            "error": "ResultFileInvalid",
            "message": f"{tmp_path / 'edited' / 'zz-extra.json'}: holds pair 'i2t-beach'",
        }


class TestStatsAndCache:
    def test_stats_text_and_json(self, capsys):
        assert main(["stats", "--bench", str(FIXTURES / "bench6.json")]) == 0
        text = capsys.readouterr().out
        assert "pairs: 6" in text
        assert main(["stats", "--bench", str(FIXTURES / "bench6.json"),
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["task_counts"] == {
            "image-captioning": 2, "vqa": 1, "text-to-image": 3,
        }

    def test_cache_stat_counts_entries_after_run(self, scenario_dir, tmp_path, capsys):
        assert main(_detect_args(scenario_dir, tmp_path, "cache-run")) == 0
        capsys.readouterr()
        assert main(["cache", "stat", "--cache-dir", str(tmp_path / "cache")]) == 0
        stat = json.loads(capsys.readouterr().out)
        manifest = json.loads((tmp_path / "cache-run" / "manifest.json").read_text())
        backend_calls = sum(
            1 for records in manifest["traces"].values()
            for record in records if not record["cache_hit"]
        )
        assert stat["entries"] == backend_calls
        assert stat["misses"] >= stat["entries"]

    def test_each_run_appends_its_own_counts(self, scenario_dir, tmp_path, capsys):
        # A cold and a warm UniHD run, then selfcheck2, into one cache; the
        # fixture store they replay counts nothing.
        fixture_stats = (scenario_dir / "mock" / "stats.log").read_bytes()
        for run_id, extra in (("cold", ()), ("warm", ()), ("sc2", (
                "--method", "selfcheck2", "--demos", str(FIXTURES / "demos.json")))):
            assert main(_detect_args(scenario_dir, tmp_path, run_id, *extra)) == 0
        assert (tmp_path / "cache" / "stats.log").read_bytes() == b"0 45\n45 0\n0 6\n"
        assert (scenario_dir / "mock" / "stats.log").read_bytes() == fixture_stats
        capsys.readouterr()
        assert main(["cache", "stat", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "entries": 51, "bytes": 26058, "hits": 45, "misses": 51}

    def test_cache_reads_the_directory_detect_uses(self, scenario_dir, tmp_path, capsys,
                                                   monkeypatch):
        store = tmp_path / "cache"
        assert main(_detect_args(scenario_dir, tmp_path, "r1")) == 0
        cwd = tmp_path / "cwd"
        DiskCache(cwd / ".halodet-cache").put(
            CacheKey.fact_search("Huawei company", "mock-fact-search"), {"snippets": []})
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("HALODET_CACHE_DIR", str(store))
        capsys.readouterr()
        assert main(["cache", "stat"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "entries": 45, "bytes": DiskCache(store).total_bytes(), "hits": 0, "misses": 45}
        assert main(["cache", "stat", "--cache-dir", ".halodet-cache"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 1
        assert main(["cache", "clear"]) == 0
        assert capsys.readouterr().out == "cleared 45 entries\n"
        assert DiskCache(store).entry_count() == 0
        assert DiskCache(cwd / ".halodet-cache").entry_count() == 1

    def test_an_empty_cache_dir_is_refused_not_the_working_directory(
            self, tmp_path, capsys, monkeypatch):
        segment = tmp_path / "segments" / "x.log"
        segment.parent.mkdir()
        segment.write_text("kept\n")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HALODET_CACHE_DIR", "")
        assert main(["cache", "clear"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigInvalid", "message": "cache_dir must not be empty"}
        assert segment.read_text() == "kept\n"

    def test_cache_stat_on_a_missing_directory_creates_nothing(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["cache", "stat", "--cache-dir", str(missing)]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0}
        assert not missing.exists()

    def test_cache_clear(self, scenario_dir, tmp_path, capsys):
        assert main(_detect_args(scenario_dir, tmp_path, "clear-run")) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert main(["cache", "stat", "--cache-dir", str(tmp_path / "cache")]) == 0
        lines = capsys.readouterr().out
        stat = json.loads(lines[lines.index("{"):])
        assert stat["entries"] == 0

    def test_a_key_written_twice_is_one_entry(self, tmp_path, capsys):
        cache = DiskCache(tmp_path / "cache")
        key = CacheKey.fact_search("Huawei company", "mock-fact-search")
        cache.put(key, {"snippets": ["first"]})
        cache.put(key, {"snippets": ["second"]})
        assert main(["cache", "stat", "--cache-dir", str(tmp_path / "cache")]) == 0
        stat = json.loads(capsys.readouterr().out)
        # Bytes count the superseded record too.
        [segment] = (tmp_path / "cache" / "segments").iterdir()
        assert (stat["entries"], stat["bytes"]) == (1, segment.stat().st_size)
        assert len(store_records.records(tmp_path / "cache")) == 2
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert capsys.readouterr().out == "cleared 1 entries\n"
        assert not list((tmp_path / "cache").rglob("*.log"))
        assert not (tmp_path / "cache" / "stats.log").exists()

    def test_cache_stat_reads_a_vanished_segment_as_absent(self, tmp_path, capsys):
        segments = tmp_path / "cache" / "segments"
        segments.mkdir(parents=True)
        (segments / "1-2-ab.log").symlink_to(segments / "removed.log")
        assert main(["cache", "stat", "--cache-dir", str(tmp_path / "cache")]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0}


class TestOldCacheLayout:
    """A cache directory in the one-file-per-entry layout is refused, not read."""

    @pytest.fixture
    def old_store(self, tmp_path) -> Path:
        shard = tmp_path / "old-cache" / "objects" / "8d"
        shard.mkdir(parents=True)
        (shard / ("8d" + "0" * 62 + ".json")).write_text("{}")
        return tmp_path / "old-cache"

    def _one_error_line(self, capsys, old_store: Path) -> None:
        [line] = capsys.readouterr().err.splitlines()
        error = json.loads(line)
        assert error["error"] == "ConfigInvalid"
        assert str(old_store) in error["message"]

    def test_cache_stat_exits_1(self, old_store, capsys):
        assert main(["cache", "stat", "--cache-dir", str(old_store)]) == 1
        self._one_error_line(capsys, old_store)

    def test_detect_exits_1_and_writes_no_run_dir(self, scenario_dir, old_store, tmp_path,
                                                  capsys):
        args = _detect_args(scenario_dir, tmp_path, "old-layout")
        args[args.index("--cache-dir") + 1] = str(old_store)
        assert main(args) == 1
        self._one_error_line(capsys, old_store)
        assert not (tmp_path / "old-layout").exists()


class TestUsageErrors:
    """A usage error exits 1, the code for a configuration error, with one JSON line."""

    @pytest.mark.parametrize("argv", [
        ["detect", "--method", "bogus"],
        ["detect", "--width", "abc"],
        [],
        ["evaluate", "--bench", str(FIXTURES / "bench6.json")],
    ], ids=["unknown-method", "non-integer-width", "no-command", "evaluate-without-results"])
    def test_a_usage_error_is_a_one_line_config_error(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert json.loads(line)["error"] == "ConfigInvalid"
        assert captured.out == ""


class TestJsonNestedTooDeeply:
    """JSON nested past the decoder's recursion limit is an input error, not a crash."""

    def _one_error(self, argv, capsys):
        assert main(argv) == 1
        [line] = capsys.readouterr().err.splitlines()
        return json.loads(line)

    def test_stats_and_detect_reject_the_bench_file(self, scenario_dir, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 5000)
        for argv in (["stats", "--bench", str(deep)],
                     _detect_args(scenario_dir, tmp_path, "deep", "--bench", str(deep))):
            error = self._one_error(argv, capsys)
            assert error["error"] == "SchemaViolation"
            assert error["message"].startswith(f"{deep}: /: not valid JSON: maximum recursion")

    def test_evaluate_rejects_the_result_file(self, run_dir, tmp_path, capsys):
        edited = tmp_path / "edited"
        shutil.copytree(run_dir, edited)
        (edited / "i2t-beach.json").write_text("[" * 5000)
        error = self._one_error(["evaluate", "--bench", str(FIXTURES / "bench6.json"),
                                 "--results", str(edited)], capsys)
        assert error["error"] == "ResultFileInvalid"
        assert error["message"].startswith(f"{edited / 'i2t-beach.json'}: maximum recursion")


class TestHelp:
    def test_detect_help_documents_every_flag(self, capsys):
        from halodet.cli import build_parser

        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["detect", "--help"])
        assert exc_info.value.code == 0
        text = capsys.readouterr().out
        for flag in ("--bench", "--method", "--backend", "--fixtures", "--out",
                     "--run-id", "--width", "--no-cache", "--cache-dir",
                     "--demos", "--request-log", "--config"):
            assert flag in text, flag

    def test_every_detect_flag_reaches_the_run_config(self, scenario_dir, tmp_path):
        from halodet.cli import build_parser

        dests = set(vars(build_parser().parse_args(["detect"])))
        assert dests - {"command", "func", "config"} == {
            "bench", "method", "backend", "fixtures", "out", "run_id", "width",
            "cache", "cache_dir", "demos", "request_log",
        }
        log = tmp_path / "requests.jsonl"
        assert main(_detect_args(
            scenario_dir, tmp_path, "flags", "--method", "selfcheck2",
            "--width", "2", "--no-cache",
            "--demos", str(FIXTURES / "demos.json"), "--request-log", str(log))) == 0
        echo = json.loads((tmp_path / "flags" / "manifest.json").read_text())["config"]
        assert echo["bench"] == str(FIXTURES / "bench6.json")
        assert echo["fixtures"] == str(scenario_dir / "mock")
        assert (echo["method"], echo["backend"], echo["width"], echo["cache"]) == (
            "selfcheck2", "mock", 2, False)
        assert (echo["out"], echo["run_id"]) == (str(tmp_path), "flags")
        assert echo["cache_dir"] == str(tmp_path / "cache")
        assert echo["demos"] == str(FIXTURES / "demos.json")
        assert echo["request_log"] == str(log) and log.exists()

    def test_top_level_help_lists_commands(self, capsys):
        from halodet.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["--help"])
        text = capsys.readouterr().out
        for command in ("detect", "evaluate", "stats", "cache"):
            assert command in text


class TestSelfCheckZeroShot:
    def test_cli_run_and_evaluate(self, scenario_dir, tmp_path, capsys):
        assert main(_detect_args(scenario_dir, tmp_path, "sc0",
                                 "--method", "selfcheck0")) == 0
        payload = json.loads((tmp_path / "sc0" / "i2t-beach.json").read_text())
        assert payload["method"] == "selfcheck0"
        assert payload["plan"] is None
        assert payload["evidence"] == {
            "objects": [], "attributes": [], "scene_texts": [], "facts": [],
        }


class TestScenarioFixturesStayInSync:
    def test_committed_bench_matches_scenario(self):
        from halodet.bench import load

        committed = load(FIXTURES / "bench6.json")
        assert committed == e2e_scenario.build_benchmark()

    def test_committed_demos_match_scenario(self):
        committed = json.loads((FIXTURES / "demos.json").read_text())
        assert committed == e2e_scenario.demos_json()


class TestPinnedBytes:
    """The six-pair scenario's per-pair and errors.json bytes, pinned per method.

    Each digest covers every output file but the manifest, in name order, and
    must not move with the width or the cache state.
    """

    PINNED = {
        "unihd": "32bb2f1732506127850cb2759871cec08e155f83fbe3fb9e48a83678a443760d",
        "selfcheck0": "51ad8a91839884438a7d9e89fc4224b921f8be184e201f342dc0dc3dd27a6878",
        "selfcheck2": "8c1ec67bfbeb1cf39c14f2fc66558f728e8b46819d31202eb11b5c5a6b6d8af1",
    }

    @staticmethod
    def _digest(run_dir: Path) -> str:
        digest = hashlib.sha256()
        for path in sorted(run_dir.iterdir()):
            if path.name != "manifest.json":
                digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
        return digest.hexdigest()

    @pytest.mark.parametrize("method", sorted(PINNED))
    def test_outputs_match_the_pinned_digest(self, method, scenario_dir, tmp_path, capsys):
        extra = ["--demos", str(FIXTURES / "demos.json")] if method == "selfcheck2" else []
        digests = {}
        for width in ("1", "4"):
            for run in ("cold", "warm", "no-cache"):
                run_id = f"w{width}-{run}"
                flags = ["--no-cache"] if run == "no-cache" else []
                args = _detect_args(scenario_dir, tmp_path, run_id, "--method", method,
                                    "--width", width, *extra, *flags)
                # The cold and warm runs of a width share its cache directory.
                args[args.index("--cache-dir") + 1] = str(tmp_path / f"cache-{width}")
                assert main(args) == 0
                digests[run_id] = self._digest(tmp_path / run_id)
        capsys.readouterr()
        assert digests == {run_id: self.PINNED[method] for run_id in digests}
