"""Persistent content-addressed verdict cache for the scanner.

Verdicts are keyed by the kernel *content* (source text + language)
plus a pipeline *fingerprint* (detector set, harness parameters, model
identity, threshold, schema version).  Editing a kernel, changing the
ensemble, or retraining the model each change the key, so invalidation
is automatic — there is nothing to expire.

Layout: ``<root>/<stamp>-<pid>-<nonce>.seg``, append-only log segments
in the manner of a Bitcask segment or a git packfile.  A segment holds
one ``<key>\\t<json>`` line per entry and is never modified: each
:meth:`VerdictCache.put` writes one new segment through a temp file
and one ``os.replace``, so concurrent scanners share a cache without a
lock and no reader ever sees a torn segment.  Once there are more than
:data:`MAX_SEGMENTS`, ``put`` merges them into one and deletes only the
segments it read into the merge.

The first :meth:`VerdictCache.get` reads every segment into a
``key -> raw bytes`` index (one byte split per segment, no JSON parse);
a payload is parsed only when it is hit.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Bump when the cached payload layout changes.
SCHEMA_VERSION = 2
#: Segments a cache may hold before ``put`` merges them into one.
MAX_SEGMENTS = 8
SEGMENT_SUFFIX = ".seg"


def kernel_key(source: str, language: str, fingerprint: str) -> str:
    """Stable hex content address for one kernel under one pipeline."""
    h = hashlib.blake2b(digest_size=16)
    h.update(language.encode("utf-8"))
    h.update(b"\x00")
    h.update(fingerprint.encode("utf-8"))
    h.update(b"\x00")
    h.update(source.encode("utf-8"))
    return h.hexdigest()


def pipeline_fingerprint(parts: dict) -> str:
    """Hash of everything (besides kernel content) that determines a
    verdict; include ``schema`` so payload-layout bumps invalidate."""
    payload = json.dumps({**parts, "schema": SCHEMA_VERSION},
                         sort_keys=True, default=str)
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=8).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    writes: int = 0

    def to_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses, "writes": self.writes}


def _parse_segment(data: bytes, index: dict[str, bytes]) -> None:
    """Add a segment's entries to ``index``; a line without a key and a
    tab is skipped (a bad payload shows up as a miss when it is hit)."""
    for line in data.split(b"\n"):
        key, tab, raw = line.partition(b"\t")
        if tab:
            index[key.decode("ascii", "replace")] = raw


class VerdictCache:
    """Segment-log JSON store with hit/miss accounting (thread-safe)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._index: dict[str, bytes] | None = None

    def _segments(self) -> list[str]:
        """Segment file names, oldest first (later entries win)."""
        return sorted(name for name in os.listdir(self.root) if name.endswith(SEGMENT_SUFFIX))

    def _read(self) -> tuple[dict[str, bytes], list[str]]:
        """Every entry on disk, and the segments it was read from.  A
        segment merged away between the listing and its read is
        skipped, and the directory listed again for the merged one."""
        data: dict[str, bytes] = {}
        while True:
            vanished = False
            for name in self._segments():
                if name not in data:
                    try:
                        data[name] = (self.root / name).read_bytes()
                    except FileNotFoundError:
                        vanished = True
            if not vanished:
                break
        index: dict[str, bytes] = {}
        read = sorted(data)  # name order is write order: later entries win
        for name in read:
            _parse_segment(data[name], index)
        return index, read

    def _loaded(self) -> dict[str, bytes]:
        with self._lock:
            if self._index is None:
                self._index = self._read()[0]
            return self._index

    def get(self, key: str) -> dict | None:
        raw = self._loaded().get(key)
        payload = None
        if raw is not None:
            try:
                payload = json.loads(raw)
            except ValueError:  # a garbled or truncated line
                payload = None
        with self._lock:
            if payload is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return payload

    def put(self, entries: dict[str, dict]) -> None:
        """Store every ``key -> payload`` of one scan as one segment."""
        if not entries:
            return
        lines = {
            key: json.dumps(payload, sort_keys=True).encode("utf-8")
            for key, payload in entries.items()
        }
        self._write(self._name(f"{time.time_ns():020d}"), lines)
        with self._lock:
            if self._index is not None:
                self._index.update(lines)
            self.stats.writes += len(lines)
        if len(self._segments()) > MAX_SEGMENTS:
            self._compact()

    @staticmethod
    def _name(stamp: str) -> str:
        """A segment name: sorts by ``stamp``, unique across writers."""
        return f"{stamp}-{os.getpid()}-{os.urandom(4).hex()}{SEGMENT_SUFFIX}"

    def _write(self, name: str, lines: dict[str, bytes]) -> None:
        tmp = self.root / f".{name}.tmp"
        tmp.write_bytes(b"".join(k.encode("ascii") + b"\t" + v + b"\n"
                                 for k, v in lines.items()))
        os.replace(tmp, self.root / name)

    def _compact(self) -> None:
        """Merge every segment into one that sorts with the newest it
        read, then delete the segments read (and only those)."""
        index, read = self._read()
        if len(read) < 2:
            return
        stamp = read[-1].split("-", 1)[0]
        self._write(self._name(stamp), index)
        for name in read:
            try:
                os.remove(self.root / name)
            except FileNotFoundError:  # a concurrent merge took it
                pass

    def __len__(self) -> int:
        return len(self._loaded())
