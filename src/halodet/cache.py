"""Content-addressed on-disk cache for tool evidence and model replies.

Entries are keyed by the digest of a canonicalized :class:`CacheKey` and
stored as JSON files carrying their own value digest, so tampering is
detected on read. Each write goes through its own temp file + rename, making
the store safe for concurrent writers of one key. The hot path keeps its
system calls few: a read opens the entry directly, and a write creates its
shard directory only when the first open of its temp file finds none.
"""

from __future__ import annotations

import fcntl
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .errors import StoreCorrupt
from .hashing import sha256_json

# Tool kinds whose queries are about an image; their keys must carry one.
_IMAGE_BOUND_KINDS = frozenset({"object-detect", "scene-text", "attribute"})


@dataclass(frozen=True)
class CacheKey:
    """Identity of one backend call: what was asked, of which backend.

    ``canonical_query`` must already be canonicalized by the caller (trimmed
    text, sorted lowercased label lists); ``image_digest`` is empty only for
    text-only tools (fact search, and model requests whose prompt already
    folds attachment digests into the query).
    """

    tool_kind: str
    canonical_query: str
    image_digest: str
    backend_id: str
    # Computed once: the cache read, the put and the trace all name the key.
    _digest: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.tool_kind or not self.canonical_query or not self.backend_id:
            raise ValueError("tool_kind, canonical_query, backend_id must be non-empty")
        if self.tool_kind in _IMAGE_BOUND_KINDS and not self.image_digest:
            raise ValueError(f"{self.tool_kind} keys require an image digest")
        object.__setattr__(self, "_digest", sha256_json({
            "tool_kind": self.tool_kind,
            "canonical_query": self.canonical_query,
            "image_digest": self.image_digest,
            "backend_id": self.backend_id,
        }))

    # One builder per backend family: the executor's cache and the mock
    # backends address the same call through the same key.

    @classmethod
    def object_detect(cls, image_digest: str, labels: Iterable[str],
                      backend_id: str) -> CacheKey:
        """Detection of a label vocabulary; label case and order do not matter."""
        vocabulary = ",".join(sorted({label.lower() for label in labels}))
        return cls("object-detect", vocabulary, image_digest, backend_id)

    @classmethod
    def scene_text(cls, image_digest: str, backend_id: str) -> CacheKey:
        return cls("scene-text", "full-image", image_digest, backend_id)

    @classmethod
    def attribute(cls, image_digest: str, question: str, backend_id: str) -> CacheKey:
        return cls("attribute", question.strip(), image_digest, backend_id)

    @classmethod
    def fact_search(cls, question: str, top_k: int, backend_id: str) -> CacheKey:
        return cls("fact-search", f"{question.strip()} [top_k={top_k}]", "", backend_id)

    @classmethod
    def model(cls, request_digest: str, backend_id: str) -> CacheKey:
        """A model request, named by its ``gateway.request_digest``."""
        return cls("model", request_digest, "", backend_id)

    def digest(self) -> str:
        return self._digest


class DiskCache:
    """Digest-addressed JSON store with integrity-checked reads."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self._objects = self.directory / "objects"
        self._objects.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: CacheKey) -> str:
        digest = key.digest()
        return os.path.join(self._objects, digest[:2], f"{digest}.json")

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        """Look up a key; returns (hit, value).

        A tampered entry, or one of any unreadable shape, counts as a miss,
        then raises StoreCorrupt.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as entry:
                data = entry.read()
        except FileNotFoundError:
            self._count(hit=False)
            return False, None
        try:
            record = json.loads(data.decode("utf-8"))
            value = record["value"]
            stored_digest = record["value_sha256"]
        except (ValueError, KeyError, TypeError) as exc:  # TypeError: not an object
            self._count(hit=False)
            raise StoreCorrupt(
                f"unreadable cache entry {os.path.basename(path)}: {exc}") from exc
        if sha256_json(value) != stored_digest:
            self._count(hit=False)
            raise StoreCorrupt(
                f"cache entry {os.path.basename(path)} failed its integrity check")
        self._count(hit=True)
        return True, value

    def _count(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.hits += 1
            else:
                self.misses += 1

    def put(self, key: CacheKey, value: Any) -> None:
        path = self._path(key)
        record = {
            "key": {
                "tool_kind": key.tool_kind,
                "canonical_query": key.canonical_query,
                "image_digest": key.image_digest,
                "backend_id": key.backend_id,
            },
            "value_sha256": sha256_json(value),
            "value": value,
        }
        data = (json.dumps(record, ensure_ascii=False, indent=2) + "\n").encode("utf-8")
        # One writer per thread at a time, so pid + thread id names a temp
        # file no concurrent writer of this key shares.
        tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        try:
            fd = os.open(tmp, flags, 0o666)
        except FileNotFoundError:  # first entry of this shard, or the shard was removed
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd = os.open(tmp, flags, 0o666)
        try:
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise

    # --- maintenance and reporting ---------------------------------------

    def entry_count(self) -> int:
        return sum(1 for _ in self._objects.glob("*/*.json"))

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self._objects.glob("*/*.json"))

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for path in self._objects.glob("*/*.json"):
            path.unlink()
            removed += 1
        stats = self.directory / "stats.json"
        if stats.exists():
            stats.unlink()
        with self._lock:
            self.hits = 0
            self.misses = 0
        return removed

    def flush_stats(self) -> None:
        """Fold this instance's hit/miss counters into the persisted totals.

        The read-modify-write holds an exclusive ``flock`` on ``stats.lock``,
        so runs sharing a cache directory neither collide nor lose counts.
        """
        stats_path = self.directory / "stats.json"
        with self._lock:
            hits, misses = self.hits, self.misses
            self.hits = 0
            self.misses = 0
        with open(self.directory / "stats.lock", "a") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
            totals = self.persisted_stats()
            totals["hits"] += hits
            totals["misses"] += misses
            tmp = stats_path.with_name(f"stats.{os.getpid()}.{threading.get_ident()}.tmp")
            tmp.write_text(json.dumps(totals) + "\n", "utf-8")
            os.replace(tmp, stats_path)

    def persisted_stats(self) -> dict[str, int]:
        """The persisted totals; a missing file, or one that is not a mapping
        of counts, reads as zero."""
        try:
            data = json.loads((self.directory / "stats.json").read_text("utf-8"))
            return {"hits": int(data.get("hits", 0)), "misses": int(data.get("misses", 0))}
        except (FileNotFoundError, ValueError, TypeError, AttributeError):
            return {"hits": 0, "misses": 0}
