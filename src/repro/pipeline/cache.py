"""Content-addressed artifact cache for pipeline stages.

Every stage execution is identified by a fingerprint: the SHA-256 of the
stage name, its spec (as canonical JSON) and the fingerprints of its
dependencies.  Identical work — the same benchmark locked with the same
seed, the same recipe applied to the same netlist — therefore hashes to the
same key whoever asks, so a warm grid run (or a second attack sharing a
benchmark's lock/synth prefix, even from another worker process) loads the
pickled artifact from disk instead of recomputing it.

The cache root defaults to ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
``Runner(workdir=...)`` points it anywhere else (CI, tmpdirs, scratch
volumes).  Entries are written atomically (temp file + rename) so parallel
workers never observe torn pickles.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import CacheError
from repro.obs import metrics as _metrics

_ENV_ROOT = "REPRO_CACHE_DIR"
_SENTINEL = object()

#: Salted into every stage fingerprint (see ``execute_stages``) next to
#: ``runner.source_digest()``.  Source edits already invalidate artifacts
#: through that digest; bumping this invalidates them without one.
CACHE_SCHEMA = 5  # v5: cross-worker shared synth-cache stats in almost artifacts


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for fingerprinting (sorted keys, no spaces)."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise CacheError(f"cannot fingerprint non-JSON value: {exc}") from None


def fingerprint(*parts: Any) -> str:
    """SHA-256 hex digest over the canonical JSON of ``parts``."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(canonical_json(part).encode())
        digest.update(b"\x00")
    return digest.hexdigest()


def file_digest(path: Union[str, Path]) -> str:
    """SHA-256 of a file's bytes (ties path-based specs to file content)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


_DURATION_UNITS = {"s": 1, "m": 60, "h": 3600, "d": 86400, "w": 604800}
_SIZE_UNITS = {"": 1, "k": 1024, "m": 1024**2, "g": 1024**3, "t": 1024**4}


def parse_duration(text: str) -> float:
    """``"90s"``/``"15m"``/``"6h"``/``"30d"``/``"2w"`` -> seconds.

    A bare number means seconds.  Used by ``repro cache prune
    --older-than``.
    """
    match = re.fullmatch(
        r"\s*(\d+(?:\.\d+)?)\s*([smhdw]?)\s*", str(text).lower()
    )
    if not match:
        raise CacheError(
            f"cannot parse duration {text!r}; expected e.g. 90s, 15m, "
            "6h, 30d, 2w"
        )
    return float(match.group(1)) * _DURATION_UNITS.get(match.group(2), 1)


def parse_size(text: str) -> int:
    """``"500M"``/``"2G"``/``"1024"`` -> bytes (1024-based, optional B).

    Used by ``repro cache prune --max-bytes``.
    """
    match = re.fullmatch(
        r"\s*(\d+(?:\.\d+)?)\s*([kmgt]?)b?\s*", str(text).lower()
    )
    if not match:
        raise CacheError(
            f"cannot parse size {text!r}; expected e.g. 1024, 500M, 2G"
        )
    return int(float(match.group(1)) * _SIZE_UNITS[match.group(2)])


def default_cache_root() -> Path:
    env = os.environ.get(_ENV_ROOT)
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


class ArtifactCache:
    """Pickle-backed store mapping fingerprints to stage artifacts."""

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.root = Path(root).expanduser() if root else default_cache_root()
        self.hits = 0
        self.misses = 0
        self.writes = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def contains(self, key: str) -> bool:
        return self.path_for(key).exists()

    def get(self, key: str, default: Any = _SENTINEL) -> Any:
        """Load an artifact; counts a hit/miss.  Raises on a true miss
        unless ``default`` is supplied (mirrors ``dict.get`` vs ``[]``).
        A corrupt entry is treated as a miss and deleted."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except OSError:
            # Missing or unreadable entry: a plain miss.  Never delete here —
            # on a shared cache an EACCES may hide someone else's valid
            # artifact.
            pass
        except (pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            # Corrupt or stale content: evict so the slot heals itself.
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
        else:
            self.hits += 1
            _metrics.inc("artifact_cache.hits")
            return value
        self.misses += 1
        _metrics.inc("artifact_cache.misses")
        if default is _SENTINEL:
            raise CacheError(f"cache miss for {key}")
        return default

    def put(self, key: str, value: Any) -> bool:
        """Store an artifact atomically; returns False if it can't pickle."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PicklingError, TypeError, AttributeError):
            # Unpicklable artifacts (e.g. closures) just skip the cache.
            return False
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except OSError as exc:
            Path(handle.name).unlink(missing_ok=True)
            raise CacheError(f"cannot write cache entry {key}: {exc}") from None
        self.writes += 1
        _metrics.inc("artifact_cache.writes")
        return True

    def clear(self) -> int:
        """Delete every entry under the root; returns the count removed."""
        removed = 0
        if not self.root.exists():
            return removed
        for entry in self.root.glob("*/*.pkl"):
            entry.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> dict:
        return {
            "root": str(self.root),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
        }

    def _entries(self) -> list[tuple[Path, os.stat_result]]:
        """Every on-disk entry with its stat, skipping vanished files
        (parallel workers may be pruning/writing concurrently)."""
        entries = []
        if not self.root.exists():
            return entries
        for path in self.root.glob("*/*.pkl"):
            try:
                entries.append((path, path.stat()))
            except OSError:
                continue
        return entries

    def disk_stats(self) -> dict:
        """What ``repro cache stats`` prints: the on-disk footprint."""
        entries = self._entries()
        return {
            "root": str(self.root),
            "schema": CACHE_SCHEMA,
            "entries": len(entries),
            "bytes": sum(stat.st_size for _path, stat in entries),
        }

    def prune(
        self,
        older_than_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
    ) -> dict:
        """Evict entries by age and/or total-size budget.

        ``older_than_s`` removes entries whose mtime is further back than
        that many seconds; ``max_bytes`` then evicts oldest-first until
        the survivors fit the budget.  Safe on a live cache: eviction is
        only ever a future miss.  Returns ``{"removed", "freed_bytes",
        "remaining", "remaining_bytes"}``.
        """
        entries = sorted(
            self._entries(), key=lambda item: item[1].st_mtime
        )
        removed = 0
        freed = 0
        keep: list[tuple[Path, os.stat_result]] = []
        cutoff = (
            time.time() - older_than_s if older_than_s is not None else None
        )
        for path, stat in entries:
            if cutoff is not None and stat.st_mtime < cutoff:
                path.unlink(missing_ok=True)
                removed += 1
                freed += stat.st_size
            else:
                keep.append((path, stat))
        if max_bytes is not None:
            total = sum(stat.st_size for _path, stat in keep)
            survivors = []
            for index, (path, stat) in enumerate(keep):
                if total > max_bytes:
                    path.unlink(missing_ok=True)
                    removed += 1
                    freed += stat.st_size
                    total -= stat.st_size
                else:
                    survivors.extend(keep[index:])
                    break
            keep = survivors
        for shard in self.root.glob("*"):
            # Drop shard dirs the pruning emptied (ignore non-empty/races).
            if shard.is_dir():
                try:
                    shard.rmdir()
                except OSError:
                    pass
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining": len(keep),
            "remaining_bytes": sum(stat.st_size for _path, stat in keep),
        }
