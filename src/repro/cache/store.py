"""Two-tier compilation-artifact store: in-memory LRU over an on-disk,
content-addressed entry directory.

Disk entries are single JSON files holding the generated module source, the
serialized (post-optimization) SDFG, the interpreter-fallback closure
specification, and a payload checksum.  Writes are crash-safe (temp file +
atomic rename, so concurrent writers race benignly — last writer wins with
an identical payload); reads verify the checksum and evict corrupted
entries.  The disk tier is LRU via entry-file mtimes and size-bounded by
``cache.max_bytes``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["CacheEntry", "CacheStore", "CacheStats", "stats", "reset_stats"]

ENTRY_SCHEMA = "repro-cache-entry/1"


# ---------------------------------------------------------------------------
# process-wide accounting
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CacheStats:
    """Process-wide cache event counters (mutate through :meth:`bump` —
    bare ``+=`` on a shared counter loses increments under the multicore
    execution backend's worker threads)."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    invalidations: int = 0      # corrupted/unreadable entries evicted
    evictions: int = 0          # LRU size-budget evictions

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def bump(self, counter: str, n: int = 1) -> None:
        """Atomically increment one of the counter fields."""
        with self._lock:
            setattr(self, counter, getattr(self, counter) + n)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> Dict[str, Any]:
        d = dataclasses.asdict(self)
        d["hits"] = self.hits
        d["hit_rate"] = self.hit_rate
        return d


_STATS = CacheStats()


def stats() -> CacheStats:
    """The process-wide counter object (mutated in place by the cache)."""
    return _STATS


def reset_stats() -> None:
    global _STATS
    _STATS = CacheStats()


# ---------------------------------------------------------------------------
# entries
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class CacheEntry:
    """One persisted compilation artifact."""

    key: str
    program: str
    source: str
    sdfg_json: Dict[str, Any]
    closure_specs: Dict[str, Tuple[int, int]]
    device: str = "CPU"
    instrument: bool = False
    sanitize: bool = False
    optimize: str = ""
    created_utc: str = ""
    checksum: str = ""

    def payload_checksum(self) -> str:
        blob = json.dumps(
            {"source": self.source, "sdfg": self.sdfg_json,
             "closures": {k: list(v) for k, v in
                          sorted(self.closure_specs.items())}},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": ENTRY_SCHEMA,
            "key": self.key,
            "program": self.program,
            "source": self.source,
            "sdfg_json": self.sdfg_json,
            "closure_specs": {k: list(v) for k, v in self.closure_specs.items()},
            "device": self.device,
            "instrument": self.instrument,
            "sanitize": self.sanitize,
            "optimize": self.optimize,
            "created_utc": self.created_utc,
            "checksum": self.checksum,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "CacheEntry":
        if d.get("schema") != ENTRY_SCHEMA:
            raise ValueError(f"unknown cache entry schema {d.get('schema')!r}")
        return cls(
            key=d["key"],
            program=d.get("program", ""),
            source=d["source"],
            sdfg_json=d["sdfg_json"],
            closure_specs={k: (int(v[0]), int(v[1]))
                           for k, v in d.get("closure_specs", {}).items()},
            device=d.get("device", "CPU"),
            instrument=bool(d.get("instrument", False)),
            sanitize=bool(d.get("sanitize", False)),
            optimize=d.get("optimize", ""),
            created_utc=d.get("created_utc", ""),
            checksum=d.get("checksum", ""),
        )


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

def default_directory() -> str:
    """Resolve the cache directory: ``cache.dir`` config key, then the
    ``REPRO_CACHE_DIR`` environment variable, then ``~/.cache/repro``."""
    from ..config import Config

    configured = Config.get("cache.dir")
    if configured:
        return os.path.expanduser(str(configured))
    env = os.environ.get("REPRO_CACHE_DIR", "")
    if env:
        return os.path.expanduser(env)
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


class CacheStore:
    """In-memory LRU of live compiled modules in front of the disk tier."""

    def __init__(self, directory: Optional[str] = None,
                 max_bytes: Optional[int] = None,
                 memory_entries: Optional[int] = None):
        from ..config import Config

        self.directory = directory or default_directory()
        self.max_bytes = (max_bytes if max_bytes is not None
                          else int(Config.get("cache.max_bytes")))
        self.memory_entries = (memory_entries if memory_entries is not None
                               else int(Config.get("cache.memory_entries")))
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()

    # ------------------------------------------------------------- memory tier
    def get_memory(self, key: str):
        with self._lock:
            value = self._memory.get(key)
            if value is not None:
                self._memory.move_to_end(key)
            return value

    def put_memory(self, key: str, value) -> None:
        with self._lock:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > max(1, self.memory_entries):
                self._memory.popitem(last=False)

    def clear_memory(self) -> None:
        with self._lock:
            self._memory.clear()

    @property
    def memory_size(self) -> int:
        with self._lock:
            return len(self._memory)

    # --------------------------------------------------------------- disk tier
    def entry_path(self, key: str) -> str:
        return os.path.join(self.directory, "entries", key[:2], f"{key}.json")

    def load_disk(self, key: str) -> Optional[CacheEntry]:
        """Load and checksum-verify a disk entry; evict it if corrupted."""
        path = self.entry_path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entry = CacheEntry.from_dict(json.load(fh))
            if entry.key != key or entry.checksum != entry.payload_checksum():
                raise ValueError("checksum mismatch")
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, TypeError):
            self.invalidate(key)
            return None
        try:
            os.utime(path)          # bump LRU recency
        except OSError:
            pass
        return entry

    def write_disk(self, entry: CacheEntry) -> bool:
        """Crash-safe write: temp file in the same directory + atomic rename.

        Concurrent writers of the same key are benign: both temp files hold
        the same content-addressed payload and ``os.replace`` is atomic.
        """
        path = self.entry_path(entry.key)
        entry.checksum = entry.payload_checksum()
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path),
                                       prefix=f".{entry.key[:8]}-",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(entry.to_dict(), fh, sort_keys=True, default=str)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return False
        _STATS.bump("stores")
        self.evict_to_budget()
        return True

    def invalidate(self, key: str) -> bool:
        """Drop a (corrupted or stale) entry from both tiers."""
        with self._lock:
            self._memory.pop(key, None)
        try:
            os.unlink(self.entry_path(key))
        except OSError:
            return False
        _STATS.bump("invalidations")
        return True

    def iter_entry_files(self) -> Iterator[str]:
        root = os.path.join(self.directory, "entries")
        if not os.path.isdir(root):
            return
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in filenames:
                if name.endswith(".json"):
                    yield os.path.join(dirpath, name)

    def evict_to_budget(self) -> int:
        """Delete least-recently-used entries until under ``max_bytes``."""
        files: List[Tuple[float, int, str]] = []
        total = 0
        for path in self.iter_entry_files():
            try:
                st = os.stat(path)
            except OSError:
                continue
            files.append((st.st_mtime, st.st_size, path))
            total += st.st_size
        evicted = 0
        if total <= self.max_bytes:
            return 0
        files.sort()                # oldest mtime first
        for _mtime, size, path in files:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
            _STATS.bump("evictions")
        return evicted

    # ------------------------------------------------------------ maintenance
    def clear(self) -> int:
        """Remove every entry (both tiers); returns entries removed."""
        self.clear_memory()
        removed = 0
        for path in list(self.iter_entry_files()):
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        return removed

    def disk_stats(self) -> Dict[str, Any]:
        entries = 0
        total = 0
        for path in self.iter_entry_files():
            try:
                total += os.stat(path).st_size
            except OSError:
                continue
            entries += 1
        return {"directory": self.directory, "entries": entries,
                "bytes": total, "max_bytes": self.max_bytes,
                "memory_entries": self.memory_size}

    def verify(self, evict: bool = False) -> Tuple[int, List[str]]:
        """Checksum-verify every disk entry; returns (ok_count, corrupted).

        With ``evict=True`` corrupted entries are deleted.
        """
        ok = 0
        corrupted: List[str] = []
        for path in list(self.iter_entry_files()):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    entry = CacheEntry.from_dict(json.load(fh))
                if entry.checksum != entry.payload_checksum():
                    raise ValueError("checksum mismatch")
            except (OSError, ValueError, KeyError, TypeError):
                corrupted.append(path)
                if evict:
                    try:
                        os.unlink(path)
                        _STATS.bump("invalidations")
                    except OSError:
                        pass
                continue
            ok += 1
        return ok, corrupted
