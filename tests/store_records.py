"""Read, rewrite and drop the records of a ``DiskCache`` store, for tests.

A store keeps its entries as lines in ``segments/*.log``: a 64-hex key digest,
a space, the compact JSON record, then a newline. This module reads that
layout on its own, so the tests that damage a store do not go through the
code under test to find what to damage.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from halodet.cache import CacheKey, DiskCache

_PREFIX = 65  # the digest and its space


@dataclass(frozen=True)
class Record:
    segment: Path
    offset: int  # of the line in its segment
    digest: str
    body: bytes  # the JSON record

    def json(self) -> Any:
        return json.loads(self.body)


def records(directory: str | Path) -> list[Record]:
    """Every complete record of the store, in segment (creation) order, so a
    dict built from them keeps the record of each key that a reopen reads."""
    found = []
    for segment in sorted((Path(directory) / "segments").glob("*.log")):
        data, start = segment.read_bytes(), 0
        while (end := data.find(b"\n", start)) >= 0:
            found.append(Record(segment, start, data[start:start + 64].decode(),
                                data[start + _PREFIX:end]))
            start = end + 1
    return found


def rewrite(record: Record, body: str) -> None:
    """Overwrite a record's JSON in place, space-padded to its old length, so a
    store that is already open reads the new body where it indexed the old."""
    data = body.encode("utf-8")
    if len(data) > len(record.body):
        raise ValueError(f"{len(data)} bytes do not fit a record of {len(record.body)}")
    with open(record.segment, "r+b") as segment:
        segment.seek(record.offset + _PREFIX)
        segment.write(data.ljust(len(record.body)))


def drop(directory: str | Path, doomed: Callable[[Record], bool]) -> int:
    """Remove the matching records from their segments; returns how many.

    Later records move, so only a store opened afterwards reads the result.
    """
    kept: dict[Path, list[bytes]] = {
        segment: [] for segment in (Path(directory) / "segments").glob("*.log")}
    dropped = 0
    for record in records(directory):
        if doomed(record):
            dropped += 1
        else:
            kept[record.segment].append(f"{record.digest} ".encode() + record.body + b"\n")
    for segment, lines in kept.items():
        segment.write_bytes(b"".join(lines))
    return dropped


def key(query: str) -> CacheKey:
    return CacheKey.fact_search(query, 3, "mock")


def write_keys(directory: str, writer: int, count: int) -> None:
    """Put ``count`` keys of this writer's own, each followed by a key that
    every writer shares; the target of the multi-process writer test."""
    cache = DiskCache(directory)
    for i in range(count):
        cache.put(key(f"writer{writer}-{i}"), {"writer": writer, "i": i})
        cache.put(key(f"shared-{i}"), {"writer": writer, "i": i})


def flush_hits(directory: str, count: int) -> None:
    """Flush one hit ``count`` times; the target of the multi-process stats test."""
    cache = DiskCache(directory)
    for _ in range(count):
        cache.hits = 1
        cache.flush_stats()
