"""Content-addressed, log-structured on-disk cache for tool evidence and model replies.

After Bitcask, each :class:`DiskCache` appends to a segment of its own,
``segments/<time_ns>-<pid>-<random>.log``, opened at its first put. A record
is one line: a :class:`CacheKey` digest, a space, and compact JSON carrying the
value and its digest, so tampering is caught on read. Opening a store indexes
its segments in name (creation) order without parsing JSON, and creates
nothing; a later record of a key wins. A get is a dict lookup plus, on a hit,
one ``os.pread``; a put is one ``os.write``. A torn tail (no final newline) is
never indexed, and a write that fails abandons its segment. Other processes'
new records show on reopen. Each run appends its hit and miss counts to
``stats.log``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .errors import ConfigInvalid, StoreCorrupt
from .hashing import sha256_json

_KEY_FIELDS = ("tool_kind", "canonical_query", "image_digest", "backend_id")
# Tool kinds whose queries are about an image; their keys must carry one.
_IMAGE_BOUND_KINDS = frozenset({"object-detect", "scene-text", "attribute"})
# A whole stats.log line: two counts, short enough that int() always reads them.
_STATS_LINE = re.compile(rb"^([0-9]{1,18}) ([0-9]{1,18})\n", re.MULTILINE)
# The most snippets one fact question keeps, in every run; each fact-search key carries it.
FACT_TOP_K = 3


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
        fields = {name: getattr(self, name) for name in _KEY_FIELDS}
        object.__setattr__(self, "_digest", sha256_json(fields))

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
    def fact_search(cls, question: str, backend_id: str) -> CacheKey:
        return cls("fact-search", f"{question.strip()} [top_k={FACT_TOP_K}]", "", backend_id)

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
        if (self.directory / "objects").is_dir():
            raise ConfigInvalid(f"{self.directory} holds a cache in the old one-file-per-entry "
                                "layout (objects/); delete that directory and run again")
        self._segments = self.directory / "segments"  # made by the first put
        self._lock = threading.Lock()
        self._index: dict[str, tuple[str, int, int]] = {}  # digest -> (segment, offset, length)
        self._fds: dict[str, int] = {}  # segment -> descriptor, opened at first use
        self._writer: str | None = None  # this instance's segment, until a write fails
        self._end = 0  # the length of that segment
        weakref.finalize(self, _close_all, self._fds)
        for name in self._segment_names():
            try:
                data, start = (self._segments / name).read_bytes(), 0
            except FileNotFoundError:  # removed since the listing: its entries miss
                continue
            while (end := data.find(b"\n", start)) >= 0:  # a torn tail has no newline
                self._index[data[start:start + 64].decode("latin-1")] = (name, start, end - start)
                start = end + 1

    def _segment_names(self) -> list[str]:
        return sorted(path.name for path in self._segments.glob("*.log"))

    def get(self, key: CacheKey) -> tuple[bool, Any]:
        """Look up a key; returns (hit, value). A tampered record, or one of any
        unreadable shape, raises StoreCorrupt."""
        digest = key.digest()
        entry = self._index.get(digest)
        if entry is None:
            return False, None
        name, offset, length = entry
        try:
            if name not in self._fds:  # a segment this instance did not write
                with self._lock:
                    if name not in self._fds:
                        self._fds[name] = os.open(self._segments / name, os.O_RDONLY)
            line = os.pread(self._fds[name], length, offset)
            if line[:65] != f"{digest} ".encode():
                raise ValueError("the record names another key")
            record = json.loads(line[65:])
            value = record["value"]
            if sha256_json(value) != record["value_sha256"]:
                raise ValueError("the value failed its integrity check")
        except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
            raise StoreCorrupt(f"unreadable cache record {digest} in {name}: {exc}") from exc
        return True, value

    def put(self, key: CacheKey, value: Any) -> None:
        encoded = json.dumps({"key": {name: getattr(key, name) for name in _KEY_FIELDS},
                              "value_sha256": sha256_json(value), "value": value},
                             ensure_ascii=False, separators=(",", ":"))
        line = f"{key.digest()} {encoded}\n".encode("utf-8")
        with self._lock:
            if self._writer is None:
                name = f"{time.time_ns()}-{os.getpid()}-{os.urandom(4).hex()}.log"
                self._segments.mkdir(parents=True, exist_ok=True)
                self._fds[name] = os.open(self._segments / name,
                                          os.O_RDWR | os.O_APPEND | os.O_CREAT | os.O_EXCL, 0o666)
                self._writer, self._end = name, 0
            try:
                if os.write(self._fds[self._writer], line) != len(line):
                    raise OSError(f"short write to cache segment {self._writer}")
            except BaseException:
                self._writer = None  # its earlier records stay readable
                raise
            self._index[key.digest()] = (self._writer, self._end, len(line) - 1)
            self._end += len(line)

    # --- maintenance and reporting ---------------------------------------

    def entry_count(self) -> int:
        """Distinct keys this instance can read."""
        return len(self._index)

    def total_bytes(self) -> int:
        """Bytes of every segment, superseded records included."""
        total = 0
        for name in self._segment_names():
            with contextlib.suppress(FileNotFoundError):  # removed since the listing
                total += os.path.getsize(self._segments / name)
        return total

    def clear(self) -> int:
        """Remove every segment and ``stats.log``; returns how many entries were removed."""
        with self._lock:
            removed = len(self._index)
            _close_all(self._fds)
            self._index.clear()
            self._writer = None
            for name in self._segment_names():
                (self._segments / name).unlink(missing_ok=True)
        (self.directory / "stats.log").unlink(missing_ok=True)
        return removed

    def flush_stats(self, hits: int, misses: int) -> None:
        """Append one run's counts to ``stats.log`` as one ``<hits> <misses>``
        line, in one unbuffered ``O_APPEND`` write, so runs sharing a cache
        directory neither collide nor lose counts."""
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(self.directory / "stats.log", "ab", buffering=0) as log:
            log.write(f"{hits} {misses}\n".encode())

    def persisted_stats(self) -> dict[str, int]:
        """The sums of ``stats.log``; a line that is not exactly two counts of
        1-18 ASCII digits and a newline (a torn or garbled one) adds nothing."""
        try:
            lines = _STATS_LINE.findall((self.directory / "stats.log").read_bytes())
        except FileNotFoundError:
            lines = []
        return {"hits": sum(int(hits) for hits, _ in lines),
                "misses": sum(int(misses) for _, misses in lines)}


def _close_all(fds: dict[str, int]) -> None:
    for fd in fds.values():
        os.close(fd)
    fds.clear()
