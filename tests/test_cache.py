"""Disk cache: content addressing, integrity, stats, canonical keys."""

from __future__ import annotations

import json
import os
import threading

import pytest

from halodet.cache import CacheKey, DiskCache
from halodet.errors import StoreCorrupt
from halodet.gateway import ModelRequest, request_digest
from halodet.hashing import sha256_text
from halodet.prompts import RenderedPrompt


def _key(query: str = "where is it?") -> CacheKey:
    return CacheKey(tool_kind="fact-search", canonical_query=query,
                    image_digest="", backend_id="mock")


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
            CacheKey.fact_search("Huawei company", 3, "mock-fact-search"):
                "e5fc5098126ae451e6fd5adfe4f83e6be936e5154816fb7593a164182878832b",
            CacheKey.model(request_digest(request), "mock-model"):
                "ebf71fe3b757038e9fa8dcdc92bb7733c7d3ff389a3981cf4076bc174fca21eb",
        }
        for key, digest in pinned.items():
            assert key.digest() == digest, key


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
        entry = next((tmp_path / "objects").glob("*/*.json"))
        record = json.loads(entry.read_text())
        record["value"] = {"x": 2}
        entry.write_text(json.dumps(record))
        with pytest.raises(StoreCorrupt):
            cache.get(_key())

    def test_corrupt_read_counts_as_a_miss(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), {"x": 1})
        entry = next((tmp_path / "objects").glob("*/*.json"))
        # A torn write, then valid JSON that is not an entry object.
        bodies = ["{torn", "[]", '"x"', "null"]
        for body in bodies:
            entry.write_text(body)
            with pytest.raises(StoreCorrupt):
                cache.get(_key())
        cache.flush_stats()
        assert cache.persisted_stats() == {"hits": 0, "misses": len(bodies)}

    def test_entry_count_bytes_and_clear(self, tmp_path):
        cache = DiskCache(tmp_path)
        for i in range(4):
            cache.put(_key(f"q{i}"), [i])
        assert cache.entry_count() == 4
        assert cache.total_bytes() > 0
        assert cache.clear() == 4
        assert cache.entry_count() == 0

    def test_stats_accumulate_across_instances(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), 1)
        cache.get(_key())
        cache.get(_key("missing"))
        cache.flush_stats()
        second = DiskCache(tmp_path)
        second.get(_key())
        second.flush_stats()
        stats = second.persisted_stats()
        assert stats == {"hits": 2, "misses": 1}

    @pytest.mark.parametrize("body", ["5", "null", "[]", '{"hits": "a"}', "{torn"])
    def test_malformed_stats_file_counts_as_zero(self, tmp_path, body):
        cache = DiskCache(tmp_path)
        (tmp_path / "stats.json").write_text(body)
        assert cache.persisted_stats() == {"hits": 0, "misses": 0}
        cache.put(_key(), {"x": 1})
        cache.get(_key())
        cache.flush_stats()
        assert cache.persisted_stats() == {"hits": 1, "misses": 0}

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
        assert not list((tmp_path / "objects").glob("*/*.tmp"))

    def test_entry_bytes_are_pinned(self, tmp_path):
        # The on-disk format: existing caches and fixture stores hold it.
        DiskCache(tmp_path).put(_key(), {"snippets": ["Café · a", "b"], "n": 1})
        digest = _key().digest()
        entry = tmp_path / "objects" / digest[:2] / f"{digest}.json"
        assert entry.read_bytes() == (
            b'{\n  "key": {\n    "tool_kind": "fact-search",\n'
            b'    "canonical_query": "where is it?",\n    "image_digest": "",\n'
            b'    "backend_id": "mock"\n  },\n'
            b'  "value_sha256": "c44b04ddbe5efc942faa7a295ec53baf18e70ed2556aeca0391e202e16b07487",\n'
            b'  "value": {\n    "snippets": [\n      "Caf\xc3\xa9 \xc2\xb7 a",\n      "b"\n'
            b'    ],\n    "n": 1\n  }\n}\n'
        )

    def test_put_recreates_a_removed_shard(self, tmp_path):
        cache = DiskCache(tmp_path)
        cache.put(_key(), "first")
        shard = tmp_path / "objects" / _key().digest()[:2]
        for entry in shard.iterdir():
            entry.unlink()
        shard.rmdir()
        cache.put(_key(), "second")
        assert cache.get(_key()) == (True, "second")

    def test_missing_key_counts_one_miss_and_creates_nothing(self, tmp_path):
        cache = DiskCache(tmp_path)
        before = sorted(tmp_path.rglob("*"))
        assert cache.get(_key("never stored")) == (False, None)
        assert (cache.hits, cache.misses) == (0, 1)
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_put_leaves_no_temp_file(self, tmp_path, monkeypatch):
        cache = DiskCache(tmp_path)

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cache.put(_key(), {"x": 1})
        assert not list((tmp_path / "objects").rglob("*.tmp"))
        assert cache.entry_count() == 0

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
                    cache.hits = 1
                    cache.flush_stats()
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
