"""Disk cache: content addressing, integrity, stats, canonical keys, the segment log."""

from __future__ import annotations

import errno
import json
import multiprocessing
import os
import shutil
import threading

import pytest

import store_records
from conftest import image_ref, table_gateway
from halodet.cache import CacheKey, DiskCache
from halodet.errors import ConfigInvalid, StoreCorrupt
from halodet.executor import run_detection
from halodet.gateway import ModelRequest, request_digest
from halodet.hashing import sha256_text
from halodet.model import Claim, ImageTextPair, TaskType
from halodet.prompts import RenderedPrompt
from halodet.stages import DetectionMethod


def _key(query: str = "where is it?") -> CacheKey:
    return CacheKey(tool_kind="fact-search", canonical_query=query,
                    image_digest="", backend_id="mock")


def _one_read_run(cache: DiskCache, reason: str = "ok") -> None:
    """A zero-shot self-check of a one-claim pair: one cache read and, on a
    miss, one model call, whose reply is put; the run appends its counts."""
    pair = ImageTextPair(id="cat", task=TaskType.VQA, image=image_ref("cat"),
                         text="A cat.", claims=(Claim(index=1, text="There is a cat."),))
    reply = json.dumps([{"claim1": "non-hallucination", "reason": reason}])
    run_detection(pair, DetectionMethod.SELF_CHECK_0SHOT, None,
                  table_gateway([("hallucination judger", reply)]), cache)


class TestCacheKey:
    def test_digest_is_stable(self):
        assert _key().digest() == _key().digest()
        assert _key("a").digest() != _key("b").digest()

    def test_image_bound_kinds_need_a_digest(self):
        with pytest.raises(ValueError):
            CacheKey(tool_kind="object-detect", canonical_query="cat",
                     image_digest="", backend_id="mock")

    def test_text_only_kinds_allow_empty_image(self):
        key = CacheKey(tool_kind="model", canonical_query="reqdigest",
                       image_digest="", backend_id="mock")
        assert key.digest()

    def test_components_required(self):
        with pytest.raises(ValueError):
            CacheKey(tool_kind="", canonical_query="q", image_digest="", backend_id="b")

    def test_family_builders_keep_existing_digests(self):
        # Digests of keys already on disk: a drift would orphan every cache
        # and every recorded mock fixture store.
        def image(name):
            return sha256_text(f"image-bytes:{name}")

        request = ModelRequest(prompt=RenderedPrompt(system="judge", user="claim1: x"))
        pinned = {
            CacheKey.object_detect(image("beach"), ["surfboard", "Chair", "people",
                                                    "umbrella", "chair"],
                                   "mock-object-detector"):
                "0100cc35de78e625323aa23fbbbdada8ca903cf4908d3eb6a05f2690db312703",
            CacheKey.scene_text(image("car"), "mock-scene-text"):
                "d5f2bf5eaf2645d4f4399abc2f7b2381f7f7aab4338552f037aeb0e8e8c2b651",
            CacheKey.attribute(image("huawei"), " What color is the phone? ",
                               "mock-attribute"):
                "b90876a5fc1bf6a0d1dfbf7a851482d61a83c33baef326339ea922f8594fd7f8",
            CacheKey.fact_search("Huawei company", "mock-fact-search"):
                "e5fc5098126ae451e6fd5adfe4f83e6be936e5154816fb7593a164182878832b",
            CacheKey.model(request_digest(request), "mock-model"):
                "ebf71fe3b757038e9fa8dcdc92bb7733c7d3ff389a3981cf4076bc174fca21eb",
        }
        for key, digest in pinned.items():
            assert key.digest() == digest, key
        # The fixed search depth stays in the query, so stores recorded with it still hit.
        assert CacheKey.fact_search(" Huawei company ", "b").canonical_query == (
            "Huawei company [top_k=3]")


class TestDiskCache:
    def test_put_then_get(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), {"snippets": ["a", "b"]})
        hit, value = cache.get(_key())
        assert hit and value == {"snippets": ["a", "b"]}

    def test_unknown_key_misses(self, tmp_path):
        cache = DiskCache(tmp_path)
        hit, value = cache.get(_key("never stored"))
        assert not hit and value is None

    def test_tampering_detected(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), {"x": 1})
        [entry] = store_records.records(tmp_path)
        record = entry.json()
        record["value"] = {"x": 2}
        store_records.rewrite(entry, json.dumps(record, separators=(",", ":")))
        with pytest.raises(StoreCorrupt):
            cache.get(_key())

    def test_a_record_under_another_keys_digest_is_corrupt(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), {"x": 1})
        [segment] = (tmp_path / "segments").iterdir()
        segment.write_bytes(segment.read_bytes().replace(
            _key().digest().encode(), _key("another").digest().encode()))
        with pytest.raises(StoreCorrupt, match="the record names another key"):
            cache.get(_key())

    def test_corrupt_read_counts_as_a_miss(self, tmp_path, caplog):
        cache = DiskCache(tmp_path)
        _one_read_run(cache)
        # A torn write, then valid JSON that is not an entry object; each
        # run reads the record the run before it put, and recomputes it.
        bodies = ["{torn", "[]", '"x"', "null"]
        for body in bodies:
            store_records.rewrite(store_records.records(tmp_path)[-1], body)
            _one_read_run(cache)
        assert len([r for r in caplog.records
                    if r.getMessage().startswith("recomputing: unreadable")]) == len(bodies)
        assert (tmp_path / "stats.log").read_bytes() == b"0 1\n" * (1 + len(bodies))

    def test_a_record_nested_too_deeply_is_corrupt(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), "x" * 6000)
        [entry] = store_records.records(tmp_path)
        store_records.rewrite(entry, "[" * 5000)
        with pytest.raises(StoreCorrupt, match="unreadable cache record"):
            cache.get(_key())
        # A run that reads such a record counts a miss.
        _one_read_run(cache, reason="x" * 6000)
        store_records.rewrite(store_records.records(tmp_path)[-1], "[" * 5000)
        _one_read_run(cache)
        assert (tmp_path / "stats.log").read_bytes() == b"0 1\n0 1\n"

    def test_entry_count_bytes_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(4):
            cache.put(_key(f"q{i}"), [i])
        assert cache.entry_count() == 4
        assert cache.total_bytes() > 0
        assert cache.clear() == 4
        assert cache.entry_count() == 0

    def test_stats_accumulate_across_instances(self, tmp_path):
        DiskCache(tmp_path).flush_stats(1, 1)
        second = DiskCache(tmp_path)
        second.flush_stats(1, 0)
        stats = second.persisted_stats()
        assert stats == {"hits": 2, "misses": 1}

    @pytest.mark.parametrize("body", [
        "5", "null", "[]", '{"hits": "a"}', "{torn", '{"hits": 1e999}',
        "[" * 100_000 + "]" * 100_000, '{"hits": "7"}', '{"hits": true}', '{"hits": 2.9}',
        '{"hits": -3}', "-3 1", "2.9 1", "1e9 1", "1 2 3", " 1 2", "1  2", "1\t2", "1 2\r",
        "\u0661 2", "1" * 19 + " 1", pytest.param("9" * 5000 + " 1", id="5000-digit-count"),
    ], ids=lambda body: "list-nested-100000-deep" if len(body) > 100 else None)
    def test_malformed_stats_file_counts_as_zero(self, tmp_path, body):
        # A bad line between good ones loses only its own counts.
        (tmp_path / "stats.log").write_bytes(b"3 4\n" + body.encode() + b"\n5 6\n")
        cache = DiskCache(tmp_path)
        assert cache.persisted_stats() == {"hits": 8, "misses": 10}
        cache.flush_stats(1, 0)
        assert cache.persisted_stats() == {"hits": 9, "misses": 10}

    def test_one_flush_appends_one_line(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.flush_stats(1, 1)
        assert (tmp_path / "stats.log").read_bytes() == b"1 1\n"
        cache.flush_stats(1, 0)
        assert (tmp_path / "stats.log").read_bytes() == b"1 1\n1 0\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["stats.log"]

    def test_a_torn_last_line_adds_nothing(self, tmp_path):
        (tmp_path / "stats.log").write_bytes(b"3 4\n5 6")
        cache = DiskCache(tmp_path)
        assert cache.persisted_stats() == {"hits": 3, "misses": 4}
        # The next flush lands on the torn line, so its counts are lost too.
        cache.flush_stats(1, 0)
        assert (tmp_path / "stats.log").read_bytes() == b"3 4\n5 61 0\n"
        assert cache.persisted_stats() == {"hits": 3, "misses": 4}

    def test_a_legacy_stats_json_is_ignored(self, tmp_path):
        (tmp_path / "stats.json").write_text('{"hits": 5, "misses": 7}\n')
        (tmp_path / "stats.lock").write_text("")
        cache = DiskCache(tmp_path)
        assert cache.persisted_stats() == {"hits": 0, "misses": 0}
        cache.flush_stats(0, 1)
        assert cache.persisted_stats() == {"hits": 0, "misses": 1}
        cache.clear()
        assert (tmp_path / "stats.json").read_text() == '{"hits": 5, "misses": 7}\n'
        assert (tmp_path / "stats.lock").read_text() == ""

    def test_clear_removes_the_stats_log(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.flush_stats(0, 1)
        assert (tmp_path / "stats.log").exists()
        cache.clear()
        assert not (tmp_path / "stats.log").exists()
        assert cache.persisted_stats() == {"hits": 0, "misses": 0}

    def test_overwrite_same_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), "old")
        cache.put(_key(), "new")
        assert cache.get(_key()) == (True, "new")
        assert cache.entry_count() == 1

    def test_concurrent_writers_of_one_key(self, tmp_path):
        cache = DiskCache(tmp_path)
        start = threading.Barrier(8)
        errors = []

        def writer(n):
            start.wait()
            try:
                for i in range(300):
                    cache.put(_key(), {"writer": n, "round": i})
                    hit, _ = cache.get(_key())
                    assert hit
            except Exception as exc:  # noqa: BLE001 - collected for the assertion
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert cache.entry_count() == 1
        assert not list(tmp_path.rglob("*.tmp"))
        assert len(list((tmp_path / "segments").iterdir())) == 1

    def test_entry_bytes_are_pinned(self, tmp_path):
        # The on-disk format: existing caches and fixture stores hold it.
        DiskCache(tmp_path).put(_key(), {"snippets": ["Café · a", "b"], "n": 1})
        [segment] = (tmp_path / "segments").iterdir()
        assert segment.read_bytes() == (
            b'8d1540832a0e468cc12d5c9fe816879c0c921cf17ed574a14f6cc375c7953721 '
            b'{"key":{"tool_kind":"fact-search","canonical_query":"where is it?",'
            b'"image_digest":"","backend_id":"mock"},'
            b'"value_sha256":"c44b04ddbe5efc942faa7a295ec53baf18e70ed2556aeca0391e202e16b07487",'
            b'"value":{"snippets":["Caf\xc3\xa9 \xc2\xb7 a","b"],"n":1}}\n'
        )

    def test_put_recreates_a_removed_shard(self, tmp_path):
        DiskCache(tmp_path).put(_key("other"), "first")  # opening alone creates nothing
        cache = DiskCache(tmp_path)
        shutil.rmtree(tmp_path / "segments")
        cache.put(_key(), "second")
        assert cache.get(_key()) == (True, "second")
        assert DiskCache(tmp_path).get(_key()) == (True, "second")

    def test_flush_stats_creates_the_directory(self, tmp_path):
        cache = DiskCache(tmp_path / "new")
        assert not (tmp_path / "new").exists()
        cache.flush_stats(0, 1)
        assert DiskCache(tmp_path / "new").persisted_stats() == {"hits": 0, "misses": 1}

    def test_missing_key_counts_one_miss_and_creates_nothing(self, tmp_path):
        cache = DiskCache(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert cache.get(_key("never stored")) == (False, None)
        assert sorted(tmp_path.rglob("*")) == before
        # A run that finds no entry counts a miss.
        _one_read_run(cache)
        assert (tmp_path / "stats.log").read_bytes() == b"0 1\n"

    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)

        def failing_write(fd, data):
            raise OSError("disk full")

        monkeypatch.setattr(os, "write", failing_write)
        with pytest.raises(OSError, match="disk full"):
            cache.put(_key(), {"x": 1})
        monkeypatch.undo()
        assert not list(tmp_path.rglob("*.tmp"))
        assert cache.entry_count() == 0
        assert cache.get(_key()) == (False, None)
        assert DiskCache(tmp_path).entry_count() == 0

    def test_concurrent_flushes_keep_every_count(self, tmp_path):
        # Runs sharing a cache directory flush at the same time; a lost
        # flush used to fail its whole batch after every pair had finished.
        start = threading.Barrier(4)
        errors = []

        def flusher():
            cache = DiskCache(tmp_path)
            start.wait()
            try:
                for _ in range(300):
                    cache.flush_stats(1, 0)
            except Exception as exc:  # noqa: BLE001 - collected for the assertion
                errors.append(exc)

        threads = [threading.Thread(target=flusher) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert errors == []
        assert DiskCache(tmp_path).persisted_stats() == {"hits": 1200, "misses": 0}


class TestSegmentLog:
    def test_the_old_layout_is_refused(self, tmp_path):
        (tmp_path / "objects" / "8d").mkdir(parents=True)
        with pytest.raises(ConfigInvalid) as exc_info:
            DiskCache(tmp_path)
        assert str(tmp_path) in str(exc_info.value)
        assert "delete" in str(exc_info.value)

    def test_a_torn_final_record_misses_after_a_reopen(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(3):
            cache.put(_key(f"q{i}"), [i])
        [segment] = (tmp_path / "segments").iterdir()
        segment.write_bytes(segment.read_bytes()[:-10])
        reopened = DiskCache(tmp_path)
        assert reopened.get(_key("q2")) == (False, None)
        assert reopened.get(_key("q0")) == (True, [0])
        assert reopened.get(_key("q1")) == (True, [1])
        assert reopened.entry_count() == 2

    def test_a_write_that_fails_halfway_keeps_every_earlier_entry(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(_key("kept"), "old")
        cache.put(_key("earlier"), 1)
        real_write = os.write

        def half_then_fail(fd, data):
            real_write(fd, data[:len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "write", half_then_fail)
        with pytest.raises(OSError):
            cache.put(_key("kept"), "new")
        monkeypatch.undo()
        for store in (cache, DiskCache(tmp_path)):
            assert store.get(_key("kept")) == (True, "old")
            assert store.get(_key("earlier")) == (True, 1)
        cache.put(_key("next"), 2)
        for store in (cache, DiskCache(tmp_path)):
            assert store.get(_key("next")) == (True, 2)
            assert store.get(_key("kept")) == (True, "old")

    def test_a_short_write_abandons_its_segment(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(_key("earlier"), 1)
        real_write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[:-1]))
        with pytest.raises(OSError, match="short write to cache segment"):
            cache.put(_key("torn"), 2)
        monkeypatch.undo()
        cache.put(_key("next"), 3)
        assert len(list((tmp_path / "segments").iterdir())) == 2
        for store in (cache, DiskCache(tmp_path)):
            assert store.get(_key("earlier")) == (True, 1)
            assert store.get(_key("next")) == (True, 3)
        assert DiskCache(tmp_path).get(_key("torn")) == (False, None)

    def test_the_last_put_of_a_key_wins_after_a_reopen(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), "first reply")
        cache.put(_key(), "retried reply")
        assert DiskCache(tmp_path).get(_key()) == (True, "retried reply")
        # Two instances in turn: a segment opens at its first put, so the
        # later writer wins even when its instance was built first.
        earlier, later = DiskCache(tmp_path), DiskCache(tmp_path)
        later.put(_key(), "from the instance built later")
        earlier.put(_key(), "from the instance built earlier")
        assert DiskCache(tmp_path).get(_key()) == (True, "from the instance built earlier")

    def test_writer_processes_share_one_directory(self, tmp_path):
        count = 100
        context = multiprocessing.get_context("spawn")
        writers = [context.Process(target=store_records.write_keys,
                                   args=(str(tmp_path), n, count)) for n in range(4)]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=60)
            assert writer.exitcode == 0
        cache = DiskCache(tmp_path)
        for n in range(4):
            for i in range(count):
                assert cache.get(store_records.key(f"writer{n}-{i}")) == \
                    (True, {"writer": n, "i": i})
        for i in range(count):
            hit, value = cache.get(store_records.key(f"shared-{i}"))
            assert hit and value["i"] == i
        assert cache.entry_count() == 5 * count

    def test_flushing_processes_share_one_stats_log(self, tmp_path):
        context = multiprocessing.get_context("spawn")
        flushers = [context.Process(target=store_records.flush_hits, args=(str(tmp_path), 300))
                    for _ in range(4)]
        for flusher in flushers:
            flusher.start()
        for flusher in flushers:
            flusher.join(timeout=60)
            assert flusher.exitcode == 0
        assert DiskCache(tmp_path).persisted_stats() == {"hits": 1200, "misses": 0}
        assert (tmp_path / "stats.log").read_bytes() == b"1 0\n" * 1200

    def test_a_segment_gone_before_it_is_read_opens_as_absent(self, tmp_path):
        (tmp_path / "segments").mkdir()
        (tmp_path / "segments" / "1-2-ab.log").symlink_to(tmp_path / "removed.log")
        cache = DiskCache(tmp_path)
        assert (cache.entry_count(), cache.total_bytes()) == (0, 0)
        assert cache.get(_key()) == (False, None)

    def test_a_clear_whose_listed_segment_is_gone_returns(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)
        cache.put(_key(), 1)
        listed = cache._segment_names()
        DiskCache(tmp_path).clear()  # another store clears between listing and unlink
        monkeypatch.setattr(cache, "_segment_names", lambda: listed)
        assert cache.total_bytes() == 0
        assert cache.clear() == 1
        assert cache.entry_count() == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_stores_close_their_segments(self, tmp_path):
        DiskCache(tmp_path).put(_key("shared"), 0)
        before = len(os.listdir("/proc/self/fd"))
        for i in range(50):
            cache = DiskCache(tmp_path)
            cache.put(_key(f"q{i}"), i)
            assert cache.get(_key("shared")) == (True, 0)
        del cache
        assert len(os.listdir("/proc/self/fd")) == before
