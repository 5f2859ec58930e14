"""Disk cache: content addressing, integrity, stats, canonical keys."""

from __future__ import annotations

import json
import threading

import pytest

from halodet.cache import CacheKey, DiskCache
from halodet.errors import StoreCorrupt


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
